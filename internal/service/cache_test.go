package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/compiler"
)

func testKey(b byte) CacheKey {
	var k CacheKey
	k[0] = b
	return k
}

// TestSingleflightCollapse: N identical concurrent compiles must run
// the compile function exactly once; every caller gets the same value.
func TestSingleflightCollapse(t *testing.T) {
	const n = 16
	c := NewCache(8)
	key := testKey(1)
	var compiles atomic.Int64
	release := make(chan struct{})
	want := &compiler.Compiled{}

	results := make(chan *compiler.Compiled, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, _, err := c.GetOrCompile(key, func() (*compiler.Compiled, error) {
				compiles.Add(1)
				<-release // hold the flight open until every caller joined
				return want, nil
			})
			if err != nil {
				t.Errorf("GetOrCompile: %v", err)
			}
			results <- val
		}()
	}

	// Wait until the n-1 late arrivals have joined the in-flight
	// compile, then let it finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Deduped < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers joined the flight", c.Stats().Deduped)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	if got := compiles.Load(); got != 1 {
		t.Errorf("compile ran %d times, want 1", got)
	}
	for val := range results {
		if val != want {
			t.Error("caller got a different compilation")
		}
	}
	stats := c.Stats()
	if stats.Deduped != n-1 {
		t.Errorf("deduped = %d, want %d", stats.Deduped, n-1)
	}
	if stats.Misses != n {
		t.Errorf("misses = %d, want %d (joining a flight is still a miss)", stats.Misses, n)
	}

	// Now the entry is cached: the next lookup is a hit.
	if _, hit, _ := c.GetOrCompile(key, func() (*compiler.Compiled, error) {
		t.Error("cached key recompiled")
		return nil, nil
	}); !hit {
		t.Error("expected a cache hit after the flight landed")
	}
}

// TestCacheErrorsNotCached: a failed compile is reported to callers but
// never stored, so the next request retries.
func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(8)
	key := testKey(2)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompile(key, func() (*compiler.Compiled, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	ran := false
	if _, hit, err := c.GetOrCompile(key, func() (*compiler.Compiled, error) {
		ran = true
		return &compiler.Compiled{}, nil
	}); hit || err != nil {
		t.Fatalf("hit=%t err=%v", hit, err)
	}
	if !ran {
		t.Error("second compile did not run after a failed first")
	}
}

// TestCacheLRUEviction: capacity bounds the cache; the least recently
// used entry is evicted first.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	mk := func() (*compiler.Compiled, error) { return &compiler.Compiled{}, nil }
	c.GetOrCompile(testKey(1), mk)
	c.GetOrCompile(testKey(2), mk)
	c.GetOrCompile(testKey(1), mk) // touch 1 → 2 is now LRU
	c.GetOrCompile(testKey(3), mk) // evicts 2
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
	if _, hit, _ := c.GetOrCompile(testKey(1), mk); !hit {
		t.Error("touched key 1 should have survived")
	}
	recompiled := false
	if _, hit, _ := c.GetOrCompile(testKey(2), func() (*compiler.Compiled, error) {
		recompiled = true
		return &compiler.Compiled{}, nil
	}); hit || !recompiled {
		t.Error("evicted key 2 should have recompiled")
	}
}

// TestKeyForSensitivity: the content address must change with the
// source and with every code-affecting option, and must be stable for
// identical inputs.
func TestKeyForSensitivity(t *testing.T) {
	base := compiler.DefaultOptions()
	if KeyFor("(+ 1 2)", base) != KeyFor("(+ 1 2)", base) {
		t.Error("identical inputs hashed differently")
	}
	if KeyFor("(+ 1 2)", base) == KeyFor("(+ 1 3)", base) {
		t.Error("different sources collided")
	}
	mutations := []func(*compiler.Options){
		func(o *compiler.Options) { o.Saves = 2 },
		func(o *compiler.Options) { o.Restores = 1 },
		func(o *compiler.Options) { o.Shuffle = codegen.ShuffleNaive },
		func(o *compiler.Options) { o.Config.ArgRegs = 2 },
		func(o *compiler.Options) { o.Config.UserRegs = 1 },
		func(o *compiler.Options) { o.Config.CalleeSaveRegs = 4 },
		func(o *compiler.Options) { o.CalleeSave = true },
		func(o *compiler.Options) { o.PredictBranches = true },
		func(o *compiler.Options) { o.Verify = true },
		func(o *compiler.Options) { o.Lint = true },
		func(o *compiler.Options) { o.NoPrelude = true },
	}
	seen := map[CacheKey]int{KeyFor("(+ 1 2)", base): -1}
	for i, mutate := range mutations {
		o := compiler.DefaultOptions()
		mutate(&o)
		k := KeyFor("(+ 1 2)", o)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %d collided with %d", i, prev)
		}
		seen[k] = i
	}
}

// TestKeyForPinned: a shared store outlives the build that wrote it, and
// KeyFor hashes option numbers, so every option value's key must never
// change. Renumbering an option enum would silently serve an older
// build's entries under a different allocator configuration.
func TestKeyForPinned(t *testing.T) {
	const dflt = "d707cefd352695cb5f5350000ea8f8ef7392240bb799f25236c9d7024afe4bf9"
	cases := []struct {
		opts OptionsRequest
		want string
	}{
		{OptionsRequest{Saves: "lazy"}, dflt},
		{OptionsRequest{Saves: "early"}, "deebbf0b1f916201dfee5236915b3be8aaa711b0b94155f8b4c255e0558de9ff"},
		{OptionsRequest{Saves: "late"}, "6ce83caff464c680b0f574fa44c148d7d6d82a7aa102a22bace6352f7232ccff"},
		{OptionsRequest{Saves: "simple"}, "f10da12b93e00d8bda42c9b1464e2cf8ca40585ee2c1b37d57170b5e1569d715"},
		{OptionsRequest{Restores: "eager"}, dflt},
		{OptionsRequest{Restores: "lazy"}, "8fe31e69dda0d0427d29bd727037660f21f76f91973632260cf3ef8d97e2461f"},
		{OptionsRequest{Shuffle: "greedy"}, dflt},
		{OptionsRequest{Shuffle: "naive"}, "f2a9994ead96f16754e959852a9f930040c7544d73560a5700ccab3185e75802"},
	}
	for _, c := range cases {
		k, err := RequestKey("(+ 1 2)", &c.opts)
		if err != nil {
			t.Fatalf("%+v: %v", c.opts, err)
		}
		if k.String() != c.want {
			t.Errorf("%+v: key %s, want %s", c.opts, k, c.want)
		}
	}
}
