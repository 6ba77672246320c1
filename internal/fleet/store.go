package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Store is a checkpointed JSONL result log: one JSON-encoded Result per
// line, written with a single O_APPEND write so concurrent workers never
// interleave partial lines. Opening an existing store loads its completed
// job IDs; a Run configured with the store skips those IDs, which is what
// makes a killed sweep resumable.
type Store struct {
	path string

	mu   sync.Mutex
	f    *os.File
	done map[string]Result
}

// OpenStore opens (creating if absent) the JSONL store at path and loads
// the results it already holds. A partial final line — the signature of a
// kill mid-append on filesystems without atomic O_APPEND semantics — is
// tolerated: it is dropped and the file truncated back to its last
// complete line, so later appends start fresh instead of concatenating
// onto the torn tail. Corruption anywhere else is an error.
func OpenStore(path string) (*Store, error) {
	s := &Store{path: path, done: make(map[string]Result)}
	tornTail := int64(-1)
	if data, err := os.ReadFile(path); err == nil {
		valid, err := s.load(data)
		if err != nil {
			return nil, err
		}
		if valid < int64(len(data)) {
			tornTail = valid
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("fleet: open store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: open store: %w", err)
	}
	if tornTail >= 0 {
		if err := f.Truncate(tornTail); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: store %s: drop torn tail: %w", path, err)
		}
	}
	s.f = f
	return s, nil
}

// load indexes the well-formed prefix of data and returns its length in
// bytes; anything past it is a torn final append for the caller to
// truncate. A line is only durable once its newline hit the disk, so an
// unterminated tail is dropped even when it happens to parse.
func (s *Store) load(data []byte) (int64, error) {
	lineno := 0
	off, valid := 0, 0
	var pendingErr error
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		line := bytes.TrimSpace(data[off : off+nl])
		off += nl + 1
		lineno++
		if len(line) == 0 {
			if pendingErr == nil {
				valid = off
			}
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the last one: real corruption.
			return 0, pendingErr
		}
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			pendingErr = fmt.Errorf("fleet: store %s: corrupt line %d: %v", s.path, lineno, err)
			continue
		}
		if r.ID == "" {
			pendingErr = fmt.Errorf("fleet: store %s: line %d has no job id", s.path, lineno)
			continue
		}
		s.done[r.ID] = r
		valid = off
	}
	return int64(valid), nil
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Len returns the number of completed results held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Get returns the stored result for a job ID, if present.
func (s *Store) Get(id string) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.done[id]
	return r, ok
}

// Append checkpoints one result as a single appended line.
func (s *Store) Append(r Result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("fleet: store %s: marshal %s: %w", s.path, r.ID, err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("fleet: store %s is closed", s.path)
	}
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("fleet: store %s: append %s: %w", s.path, r.ID, err)
	}
	s.done[r.ID] = r
	return nil
}

// Close flushes and closes the underlying file. The store's in-memory
// index remains readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
