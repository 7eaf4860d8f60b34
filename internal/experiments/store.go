package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Store is the content-addressed result cache behind craidbench
// -cache: one JSON-encoded RunResult per completed cell, keyed by the
// config's hash (ConfigHash) and namespaced by the identity of the
// build that computed it:
//
//	<dir>/<id[:16]>/<hh>/<hash>.json
//
// ConfigHash covers the configuration, not the code, so without the
// namespace a rebuilt simulator would be served its predecessor's
// numbers. Writes are atomic (temp file + rename), so a killed run
// never leaves a half-written entry that a warm run would trust, and
// concurrent Puts of one hash are idempotent — equal hashes mean equal
// deterministic simulations.
type Store struct {
	dir string       // <dir>/<id[:16]>
	seq atomic.Int64 // temp-file uniquifier
}

// buildID returns the hex SHA-256 of the running executable's bytes,
// computed once: any rebuild that changes the binary changes it, and
// identical binaries (repeated `go run`, CI's two runs) share it.
var buildID = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})

// OpenStore opens (creating if needed) the running build's namespace
// of the result store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	id, err := buildID()
	if err != nil {
		return nil, fmt.Errorf("experiments: open store: build identity: %w", err)
	}
	return openStoreAs(dir, id)
}

// openStoreAs is OpenStore for an explicit build identity (64 hex
// digits), the seam the namespace test uses.
func openStoreAs(dir, id string) (*Store, error) {
	s := &Store{dir: filepath.Join(dir, id[:16])}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: open store: %w", err)
	}
	return s, nil
}

func (s *Store) path(hash string) (string, error) {
	if len(hash) != 64 || strings.ContainsAny(hash, "/\\.") {
		return "", fmt.Errorf("experiments: malformed cell hash %q", hash)
	}
	return filepath.Join(s.dir, hash[:2], hash+".json"), nil
}

// Get loads the cached result for hash, reporting whether one exists.
// A corrupt entry (torn by something other than the atomic writer, or
// hand-edited) is a miss and is removed, so the cell is recomputed.
func (s *Store) Get(hash string) (RunResult, bool, error) {
	p, err := s.path(hash)
	if err != nil {
		return RunResult{}, false, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return RunResult{}, false, nil
	}
	if err != nil {
		return RunResult{}, false, fmt.Errorf("experiments: store get %s: %w", hash, err)
	}
	var res RunResult
	if err := json.Unmarshal(data, &res); err != nil {
		os.Remove(p)
		return RunResult{}, false, nil
	}
	return res, true, nil
}

// Put stores res under hash atomically.
func (s *Store) Put(hash string, res RunResult) error {
	p, err := s.path(hash)
	if err != nil {
		return err
	}
	data, err := json.Marshal(res)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(p), 0o755)
	}
	if err == nil {
		tmp := fmt.Sprintf("%s.tmp.%d.%d", p, os.Getpid(), s.seq.Add(1))
		if err = os.WriteFile(tmp, data, 0o644); err == nil {
			err = os.Rename(tmp, p)
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		return fmt.Errorf("experiments: store put %s: %w", hash, err)
	}
	return nil
}
