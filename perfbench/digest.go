package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expectation pins a workload's results on the default seed at full
// size. Digest covers every metric of every scheme; the headline
// figures are there for a reader of the file.
type expectation struct {
	Seed          uint64  `json:"seed"`
	Digest        string  `json:"digest"`
	Headline      string  `json:"headline"`
	PJPerWrite    float64 `json:"pj_per_write"`
	CellsPerWrite float64 `json:"cells_per_write"`
}

// digest hashes the JSON encoding of v (floats encode exactly).
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkDigest compares the run's reference results with the pinned
// expectation. It applies only to the default seed at full size; with
// -update it rewrites the expectation instead. A mismatch fails every
// op, since every op reproduced the mismatching reference.
func (r *run) checkDigest(results any, headline string, pj, cells float64) error {
	if r.cfg.seed != defaultSeed || r.cfg.tiny {
		return nil
	}
	d, err := digest(results)
	if err != nil {
		return err
	}
	path := filepath.Join(r.cfg.expected, r.cfg.workload+".json")
	if r.cfg.update {
		data, err := json.MarshalIndent(expectation{defaultSeed, d, headline, pj, cells}, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading expected metrics (regenerate with -update): %w", err)
	}
	var want expectation
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if want.Digest != d {
		r.note("metrics digest %s differs from %s in %s", d, want.Digest, path)
		r.failed = r.ops
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: every op: results differ from the expected digest\n", r.cfg.workload)
	}
	return nil
}
