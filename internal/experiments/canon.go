package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"craid/internal/core"
	"craid/internal/sim"
)

// Canonical RunConfig encoding.
//
// The result store (store.go) caches completed cells content-addressed
// by their configuration, so two processes must derive the SAME key
// for the same simulation. encoding/json cannot promise that
// (field tags, float formatting and map ordering are all fair game
// across versions), so the cache key comes from an explicit canonical
// form instead: one line per field, fixed field order, exact value
// formatting — integers in decimal, floats in hex (strconv 'x', which
// round-trips every bit pattern), strings quoted with strconv.Quote.
// The encoding is versioned; changing a field's meaning or adding one
// MUST bump canonVersion so old cache entries can never alias new
// configs.
//
// TraceAt/TraceAtSize are deliberately outside the canonical form: an
// open file handle is process-local state, not configuration, so cells
// carrying one are not hashable and Cache always computes them
// (RunMSRVolumes builds such cells).

// canonVersion is the canonical-encoding format version.
const canonVersion = "craid-config/2"

// ErrNotCanonical reports a config that cannot be canonically encoded.
var ErrNotCanonical = fmt.Errorf("experiments: config with TraceAt handle has no canonical form")

// EncodeConfig renders cfg in the canonical field-ordered form used
// for content addressing. Configs carrying a TraceAt handle return
// ErrNotCanonical.
func EncodeConfig(cfg RunConfig) ([]byte, error) {
	if cfg.TraceAt != nil {
		return nil, ErrNotCanonical
	}
	var b strings.Builder
	b.Grow(512)
	b.WriteString(canonVersion)
	b.WriteByte('\n')
	wstr := func(key, v string) {
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(v))
		b.WriteByte('\n')
	}
	wint := func(key string, v int64) {
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(v, 10))
		b.WriteByte('\n')
	}
	wfloat := func(key string, v float64) {
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
		b.WriteByte('\n')
	}
	wbool := func(key string, v bool) {
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(strconv.FormatBool(v))
		b.WriteByte('\n')
	}

	wstr("trace", cfg.Trace)
	wfloat("scale", cfg.Scale)
	wint("duration", int64(cfg.Duration))
	wstr("strategy", string(cfg.Strategy))
	wfloat("pc_pct", cfg.PCPct)
	wstr("policy", cfg.Policy)
	wstr("trace_file", cfg.TraceFile)
	wstr("trace_format", cfg.TraceFormat)
	if cfg.TraceVolume == nil {
		b.WriteString("trace_volume=nil\n")
	} else {
		wint("trace_volume", int64(*cfg.TraceVolume))
	}
	wint("dataset_blocks", cfg.DatasetBlocks)
	wstr("fault_spec", cfg.FaultSpec)
	wstr("mapping_log", cfg.MappingLog)
	wbool("map_log_sync", cfg.MapLogSync)
	wbool("instant", cfg.Instant)
	wint("pc_blocks", cfg.PCBlocks)
	wint("pc_level", int64(cfg.PCLevel))
	wbool("bursty", cfg.Bursty)
	wbool("track_load", cfg.TrackLoad)
	wbool("track_seq", cfg.TrackSeq)
	return []byte(b.String()), nil
}

// DecodeConfig parses the canonical form back into a RunConfig. It is
// strict: the version line, field order and value formats must match
// EncodeConfig exactly, so decode(encode(cfg)) re-encodes to identical
// bytes and a tampered or foreign-version encoding is rejected rather
// than half-read.
func DecodeConfig(data []byte) (RunConfig, error) {
	var cfg RunConfig
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0] != canonVersion {
		return cfg, fmt.Errorf("experiments: not a %s encoding", canonVersion)
	}
	lines = lines[1:]
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // trailing newline
	}
	pos := 0
	next := func(key string) (string, error) {
		if pos >= len(lines) {
			return "", fmt.Errorf("experiments: canonical config truncated at %q", key)
		}
		line := lines[pos]
		pos++
		val, ok := strings.CutPrefix(line, key+"=")
		if !ok {
			return "", fmt.Errorf("experiments: canonical config expected %q, got %q", key, line)
		}
		return val, nil
	}
	var err error
	rstr := func(key string) string {
		if err != nil {
			return ""
		}
		var raw, s string
		if raw, err = next(key); err == nil {
			if s, err = strconv.Unquote(raw); err != nil {
				err = fmt.Errorf("experiments: canonical %s: %w", key, err)
			}
		}
		return s
	}
	rint := func(key string) int64 {
		if err != nil {
			return 0
		}
		var raw string
		var v int64
		if raw, err = next(key); err == nil {
			if v, err = strconv.ParseInt(raw, 10, 64); err != nil {
				err = fmt.Errorf("experiments: canonical %s: %w", key, err)
			}
		}
		return v
	}
	rfloat := func(key string) float64 {
		if err != nil {
			return 0
		}
		var raw string
		var v float64
		if raw, err = next(key); err == nil {
			if v, err = strconv.ParseFloat(raw, 64); err != nil {
				err = fmt.Errorf("experiments: canonical %s: %w", key, err)
			}
		}
		return v
	}
	rbool := func(key string) bool {
		if err != nil {
			return false
		}
		var raw string
		var v bool
		if raw, err = next(key); err == nil {
			if v, err = strconv.ParseBool(raw); err != nil {
				err = fmt.Errorf("experiments: canonical %s: %w", key, err)
			}
		}
		return v
	}

	cfg.Trace = rstr("trace")
	cfg.Scale = rfloat("scale")
	cfg.Duration = sim.Time(rint("duration"))
	cfg.Strategy = Strategy(rstr("strategy"))
	cfg.PCPct = rfloat("pc_pct")
	cfg.Policy = rstr("policy")
	cfg.TraceFile = rstr("trace_file")
	cfg.TraceFormat = rstr("trace_format")
	if err == nil {
		raw, e := next("trace_volume")
		if e != nil {
			err = e
		} else if raw != "nil" {
			v, e := strconv.ParseInt(raw, 10, 64)
			if e != nil {
				err = fmt.Errorf("experiments: canonical trace_volume: %w", e)
			} else {
				vi := int(v)
				cfg.TraceVolume = &vi
			}
		}
	}
	cfg.DatasetBlocks = rint("dataset_blocks")
	cfg.FaultSpec = rstr("fault_spec")
	cfg.MappingLog = rstr("mapping_log")
	cfg.MapLogSync = rbool("map_log_sync")
	cfg.Instant = rbool("instant")
	cfg.PCBlocks = rint("pc_blocks")
	cfg.PCLevel = core.PCLevel(rint("pc_level"))
	cfg.Bursty = rbool("bursty")
	cfg.TrackLoad = rbool("track_load")
	cfg.TrackSeq = rbool("track_seq")
	if err != nil {
		return RunConfig{}, err
	}
	if pos != len(lines) {
		return RunConfig{}, fmt.Errorf("experiments: canonical config has %d trailing line(s)", len(lines)-pos)
	}
	return cfg, nil
}

// ConfigHash returns the content address of cfg: the hex SHA-256 of
// its canonical encoding. Equal hashes mean equal simulations (the
// engine is deterministic), so a cached RunResult under this key can
// stand in for re-running the cell.
func ConfigHash(cfg RunConfig) (string, error) {
	enc, err := EncodeConfig(cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}
