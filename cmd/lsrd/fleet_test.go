//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// eventTimeout bounds every wait on a child: its listen line, its exit,
// a gate health transition and each HTTP request.
const eventTimeout = 10 * time.Second

// The burst is a fixed amount of work, not a timed run: its job is to
// show concurrent requests through the gate all answered correctly.
// Serving latency and throughput are perfbench serve-mix's to measure.
const (
	burstClients  = 4
	burstRequests = 50 // per client
)

// burstMix is the burst's request mix: repeated sources (the cache-hit
// path), two compute-bound runs whose values are checked, and a batch.
// Every body is valid, so any failure is a serving fault.
var burstMix = []struct{ path, body, value string }{
	{"/v1/compile", `{"source":"(define (add1 x) (+ x 1)) (add1 41)"}`, ""},
	{"/v1/run", `{"source":"(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)"}`, "144"},
	{"/v1/compile", `{"source":"(define (len l) (if (null? l) 0 (+ 1 (len (cdr l))))) (len '(1 2 3))"}`, ""},
	{"/v1/batch", `{"items":[{"source":"(+ 1 2)"},{"source":"(* 3 4)"},{"source":"(- 9 5)"}]}`, ""},
	{"/v1/run", `{"source":"(define (sum n acc) (if (= n 0) acc (sum (- n 1) (+ acc n)))) (sum 1000 0)"}`, "500500"},
}

var client = &http.Client{Timeout: eventTimeout}

// TestFleet runs lsrd and lsrgate as processes: two replicas sharing
// one store directory behind a gate, all on ports the kernel picks. A
// fault that kills or wedges a replica shows only from outside its
// process. After each step every live process must answer /healthz.
func TestFleet(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/lsrd", "repro/cmd/lsrgate")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// go test caches a pass against this package's dependencies and the
	// files the test reads. lsrgate's packages are not dependencies, so
	// read every module directory both binaries build from: a change to
	// any of them then reruns the test.
	deps, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}",
		"repro/cmd/lsrd", "repro/cmd/lsrgate").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, dir := range strings.Split(strings.TrimSpace(string(deps)), "\n") {
		if _, err := os.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	lsrd, lsrgate := filepath.Join(bin, "lsrd"), filepath.Join(bin, "lsrgate")

	// A store that cannot be opened stops lsrd before it serves.
	notDir := filepath.Join(t.TempDir(), "store")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := start(t, "lsrd -store <file>", lsrd, "-addr", "127.0.0.1:0", "-store", notDir)
	err = bad.exited(t)
	if code := bad.cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(bad.stderr.String(), "store: open") {
		t.Fatalf("lsrd -store <regular file>: %v, want exit status 1 with \"store: open\" on stderr:\n%s", err, bad.stderr.String())
	}

	storeDir := t.TempDir()
	r1 := serve(t, "replica 1", lsrd, "-addr", "127.0.0.1:0", "-store", storeDir)
	r2 := serve(t, "replica 2", lsrd, "-addr", "127.0.0.1:0", "-store", storeDir)
	gate := serve(t, "lsrgate", lsrgate, "-addr", "127.0.0.1:0",
		"-backends", r1.url+","+r2.url, "-health", "100ms")
	healthy(t, "start-up", r1, r2, gate)

	// Store sharing: replica 2 serves replica 1's compilation from the
	// shared store without compiling it.
	const shared = `{"source": "(define (shared x) (+ x 100)) (shared 1)"}`
	first := compile(t, r1.url, shared)
	if first.Cached {
		t.Fatal("replica 1's first compile claims cached")
	}
	second := compile(t, r2.url, shared)
	if !second.Cached || second.Key != first.Key {
		t.Fatalf("replica 2 recompiled instead of reading the store: cached %v, key %s, want %s",
			second.Cached, second.Key, first.Key)
	}
	if hits, _ := value(metrics(t, r2.url), "lsrd_store_hits_total "); hits == 0 {
		t.Fatal("replica 2 reports no store hits")
	}
	healthy(t, "store sharing", r1, r2, gate)

	burst(t, gate.url)
	healthy(t, "the burst", r1, r2, gate)

	// Which replica owns a key depends on where the ring puts the
	// backends' URLs, whose ports the kernel picks, so the burst's five
	// keys may all have gone to one replica. Send distinct compiles
	// until each replica has served one, and keep one replica 1 served
	// to ask for after it drains.
	r1Served := `lsrgate_requests_total{backend="` + r1.url + `",code="200"} `
	r2Served := `lsrgate_requests_total{backend="` + r2.url + `",code="200"} `
	owned := ""
	for i := 0; ; i++ {
		text := metrics(t, gate.url)
		if _, ok := value(text, r2Served); ok && owned != "" {
			break
		}
		if i == 64 {
			t.Fatalf("64 distinct keys did not reach both replicas through the gate:\n%s", text)
		}
		before, _ := value(text, r1Served)
		body := fmt.Sprintf(`{"source": "(+ %d 1)"}`, i)
		compile(t, gate.url, body)
		if after, _ := value(metrics(t, gate.url), r1Served); after > before {
			owned = body
		}
	}
	text := metrics(t, gate.url)
	for _, r := range []*child{r1, r2} {
		for _, series := range []string{
			`lsrgate_requests_total{backend="` + r.url + `",`,
			`lsrgate_request_seconds_count{backend="` + r.url + `"}`,
		} {
			if _, ok := value(text, series); !ok {
				t.Errorf("gate metrics lack %s", series)
			}
		}
	}
	if _, ok := value(text, "lsrgate_rebalance_total "); !ok {
		t.Error("gate metrics lack lsrgate_rebalance_total")
	}
	healthy(t, "the gate metrics", r1, r2, gate)

	spin := `{"source": "(define (spin) (spin)) (spin)", "max_steps": 100000}`
	if code, body := fetch(t, gate.url+"/v1/run", spin); code != http.StatusUnprocessableEntity {
		t.Fatalf("fuel-exhausted run through the gate: %d %s, want 422", code, body)
	}
	healthy(t, "the fuel-exhausted run", r1, r2, gate)

	// Drain: SIGTERM finishes replica 1's work, flushes the store index
	// and exits 0; the gate's probes then mark it down.
	if err := r1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := r1.exited(t); err != nil {
		t.Fatalf("replica 1 did not drain cleanly: %v", err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "index.json")); err != nil {
		t.Fatalf("the drained replica did not flush the store index: %v", err)
	}
	down := `lsrgate_backend_up{backend="` + r1.url + `"} `
	for deadline := time.Now().Add(eventTimeout); ; time.Sleep(10 * time.Millisecond) {
		if v, ok := value(metrics(t, gate.url), down); ok && v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the gate did not mark replica 1 down within %v", eventTimeout)
		}
	}
	healthy(t, "the drain", r2, gate)

	// A key replica 1 owned now goes to replica 2, which reads it from
	// the store replica 1 wrote.
	if got := compile(t, gate.url, owned); !got.Cached {
		t.Fatalf("after the drain the gate's answer for %s was compiled afresh", owned)
	}
	healthy(t, "the post-drain compile", r2, gate)
}

// burst sends burstClients concurrent clients of burstRequests each
// through the gate and requires every answer to be right.
func burst(t *testing.T, base string) {
	t.Helper()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < burstClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < burstRequests; i++ {
				if err := send(base, c+i); err != nil && failed.Add(1) <= 3 {
					t.Errorf("burst: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("burst: %d of %d requests failed", n, burstClients*burstRequests)
	}
}

// send posts burst request i and checks its status, its value and
// each batch item's status.
func send(base string, i int) error {
	r := burstMix[i%len(burstMix)]
	code, data, err := request(base+r.path, r.body)
	if err != nil {
		return err
	}
	var resp struct {
		Value string                    `json:"value"`
		Items []service.BatchItemResult `json:"items"`
	}
	if code != http.StatusOK || json.Unmarshal(data, &resp) != nil {
		return fmt.Errorf("%s: %d %s", r.path, code, data)
	}
	if resp.Value != r.value {
		return fmt.Errorf("%s: value %q, want %q", r.path, resp.Value, r.value)
	}
	for _, it := range resp.Items {
		if it.Status != http.StatusOK {
			return fmt.Errorf("%s: item %d %s", r.path, it.Status, it.Body)
		}
	}
	return nil
}

// child is one fleet process.
type child struct {
	name   string
	cmd    *exec.Cmd
	stderr *logBuffer
	url    string        // http:// and the address it bound, once listening
	done   chan struct{} // closed once the process has exited and been waited for
	err    error         // cmd.Wait's result, once done is closed
}

// start runs a child that is killed and waited for when the test ends.
func start(t *testing.T, name, path string, args ...string) *child {
	t.Helper()
	c := &child{
		name:   name,
		cmd:    exec.Command(path, args...),
		stderr: &logBuffer{addr: make(chan string, 1)},
		done:   make(chan struct{}),
	}
	c.cmd.Stderr = c.stderr
	// The kernel kills the child if the test binary dies without running
	// its cleanups, as when -timeout panics.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	t.Cleanup(func() {
		_ = c.cmd.Process.Kill() // fails only if the process is already gone
		<-c.done
		if t.Failed() {
			t.Logf("%s stderr (tail):\n%s", c.name, c.stderr.tail())
		}
	})
	return c
}

// serve starts a server child and waits for the address it logs.
func serve(t *testing.T, name, path string, args ...string) *child {
	t.Helper()
	c := start(t, name, path, args...)
	select {
	case addr := <-c.stderr.addr:
		c.url = "http://" + addr
	case <-c.done:
		t.Fatalf("%s exited before listening: %v", name, c.err)
	case <-time.After(eventTimeout):
		t.Fatalf("%s logged no listen address within %v", name, eventTimeout)
	}
	return c
}

// exited waits for the child to exit and returns cmd.Wait's error.
func (c *child) exited(t *testing.T) error {
	t.Helper()
	select {
	case <-c.done:
		return c.err
	case <-time.After(eventTimeout):
		t.Fatalf("%s did not exit within %v", c.name, eventTimeout)
		return nil
	}
}

// listenLine is the line lsrd and lsrgate log once bound; the trailing
// space shows the addr field is complete.
var listenLine = regexp.MustCompile(`msg="lsr(?:d|gate) listening" addr=(\S+) `)

// logBuffer collects a child's stderr. It is always drained, since lsrd
// logs every request and a full pipe would block it. exec copies the
// pipe into it from its own goroutine, so every access holds mu.
type logBuffer struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // gets the listen line's address, once
	sent bool
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Write(p)
	if !b.sent {
		if m := listenLine.FindSubmatch(b.buf.Bytes()); m != nil {
			b.addr <- string(m[1])
			b.sent = true
		}
	}
	return len(p), nil
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// tail is the last 4 KiB of the log.
func (b *logBuffer) tail() string {
	s := b.String()
	if len(s) > 4096 {
		s = s[len(s)-4096:]
	}
	return s
}

// healthy requires each process to answer /healthz with 200.
func healthy(t *testing.T, step string, procs ...*child) {
	t.Helper()
	for _, c := range procs {
		if code, body := fetch(t, c.url+"/healthz", ""); code != http.StatusOK {
			t.Fatalf("after %s: %s /healthz: %d %s", step, c.name, code, body)
		}
	}
}

// compile posts a /v1/compile body and requires a 200.
func compile(t *testing.T, base, body string) service.CompileResponse {
	t.Helper()
	code, data := fetch(t, base+"/v1/compile", body)
	if code != http.StatusOK {
		t.Fatalf("%s/v1/compile %s: %d %s", base, body, code, data)
	}
	var resp service.CompileResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("%s/v1/compile: %v", base, err)
	}
	return resp
}

// metrics is a process's /metrics text.
func metrics(t *testing.T, base string) string {
	t.Helper()
	code, data := fetch(t, base+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("%s/metrics: %d", base, code)
	}
	return string(data)
}

// value is the sample on the first line of text that starts with
// prefix, and whether there is such a line.
func value(text, prefix string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// fetch GETs url, or POSTs body to it when body is not empty.
func fetch(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	code, data, err := request(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, data
}

// request is fetch for the burst's goroutines, which must not stop the
// test.
func request(url, body string) (int, []byte, error) {
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
