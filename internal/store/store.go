// Package store is the on-disk tier of the service's two-tier
// compilation cache: a content-addressed store of compiled programs
// keyed by the service's SHA-256 cache key. It exists so that restarts
// and horizontal lsrd replicas share compilations — the in-memory LRU
// is the fast tier, this store is the durable, shared tier underneath.
//
// Coherence is by construction: entries are immutable and keyed by the
// content hash of (prelude version, code-affecting options, source), so
// two replicas can only ever write byte-equivalent programs under the
// same key. Writers stage to a temp file and rename into place, which
// is atomic on POSIX filesystems; concurrent same-key writers race
// benignly (last rename wins, both files decode to the same program).
// Corrupt, truncated or version-skewed entries are treated as misses
// and overwritten by the next compile — never surfaced as errors to a
// client.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/compiler"
)

// Key is the content address of one compilation — the same SHA-256 the
// service's in-memory cache uses (service.CacheKey converts directly).
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// magic heads every entry file; a file without it is not an entry at
// all (and reads as a miss).
var magic = [8]byte{'l', 's', 'r', 's', 't', 'o', 'r', 'e'}

// Stats are the store's monotonic counters, all safe to read
// concurrently.
type Stats struct {
	// Hits and Misses count Get outcomes. Corrupt counts the subset of
	// misses caused by an entry that existed but failed validation
	// (bad magic, version skew, truncation, checksum or decode error).
	Hits, Misses, Corrupt int64
	// Puts counts successful writes; PutErrors counts failed ones
	// (both encode refusals and I/O errors).
	Puts, PutErrors int64
}

// Store is an on-disk compilation store rooted at one directory. It is
// safe for concurrent use by multiple goroutines and multiple
// processes sharing the directory. The directory tree is its only
// record of what it holds: Get reads an entry's file by its key.
type Store struct {
	dir string

	hits, misses, corrupt atomic.Int64
	puts, putErrors       atomic.Int64
}

// Open creates (if needed) and opens the store rooted at dir. It reads
// nothing, so it costs the same however many entries the store holds.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path is the entry file for key, sharded by the first hex byte so no
// directory grows unboundedly.
func (s *Store) path(k Key) string {
	h := k.String()
	return filepath.Join(s.dir, h[:2], h+".lsrc")
}

// Get loads the compilation stored under key. ok is false on any
// failure — absent, truncated, corrupt, version-skewed or undecodable
// entries all read as misses (corrupt ones are additionally counted
// and removed so the next Put rewrites them cleanly).
func (s *Store) Get(key Key) (*compiler.Compiled, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	c, err := decodeEntry(data)
	if err != nil {
		s.misses.Add(1)
		s.corrupt.Add(1)
		_ = os.Remove(s.path(key))
		return nil, false
	}
	s.hits.Add(1)
	return c, true
}

// Put persists a compilation under key: encode, write to a temp file in
// the entry's own shard directory, fsync-free rename into place. A
// compilation the codec refuses (lint-bearing) or an I/O failure is
// counted and reported, but callers treat Put as best-effort — the
// in-memory tier already holds the value.
func (s *Store) Put(key Key, c *compiler.Compiled) error {
	payload, err := encodeCompiled(c)
	if err != nil {
		s.putErrors.Add(1)
		return err
	}
	entry := encodeEntry(payload)
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "put-*.tmp")
	if err != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.putErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.putErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		s.putErrors.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrors.Load(),
	}
}

// encodeEntry frames a payload: magic, codec version, payload length,
// payload, SHA-256 checksum of the payload. Every field the reader
// trusts is validated; anything off reads as corruption.
func encodeEntry(payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+8+4+len(payload)+sha256.Size)
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, CodecVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return buf
}

// decodeEntry validates framing and checksum, then decodes the payload.
func decodeEntry(data []byte) (*compiler.Compiled, error) {
	header := len(magic) + 4 + 4
	if len(data) < header+sha256.Size {
		return nil, fmt.Errorf("store: entry truncated (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("store: bad magic")
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != CodecVersion {
		return nil, fmt.Errorf("store: codec version %d, want %d", v, CodecVersion)
	}
	n := int(binary.BigEndian.Uint32(data[12:16]))
	if len(data) != header+n+sha256.Size {
		return nil, fmt.Errorf("store: entry length %d does not match payload %d", len(data), n)
	}
	payload := data[header : header+n]
	var want [sha256.Size]byte
	copy(want[:], data[header+n:])
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("store: checksum mismatch")
	}
	return decodeCompiled(payload)
}
