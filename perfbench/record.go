package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runRecord is what every run records about itself and the machine, so a
// number can be traced to the code and the box that produced it.
type runRecord struct {
	Commit      string  `json:"commit"`
	SourceHash  string  `json:"source_digest"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	ClockSource string  `json:"clocksource"`
	CPUModel    string  `json:"cpu_model"`
	Kernel      string  `json:"kernel"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Traced      bool    `json:"traced"`
	Seconds     float64 `json:"seconds"`
}

func collectRecord(cfg runConfig) runRecord {
	return runRecord{
		Commit:      gitCommit(),
		SourceHash:  sourceDigest("."),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		ClockSource: readTrim("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
		CPUModel:    cpuModel(),
		Kernel:      readTrim("/proc/sys/kernel/osrelease"),
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Traced:      cfg.traced,
		Seconds:     cfg.seconds,
	}
}

func (r runRecord) String() string {
	return fmt.Sprintf("record: commit=%s source=%s go=%s gomaxprocs=%d nproc=%d clocksource=%s cpu=%q kernel=%s workload=%s seed=%d traced=%v seconds=%g",
		r.Commit, r.SourceHash, r.GoVersion, r.GOMAXPROCS, r.NumCPU, r.ClockSource, r.CPUModel, r.Kernel, r.Workload, r.Seed, r.Traced, r.Seconds)
}

// writeRecord stores the run record with the run's headline numbers next to
// the run's other artefacts.
func writeRecord(cfg runConfig, rec runRecord, res *result) error {
	doc := map[string]any{"record": rec, "digest": fmt.Sprintf("%016x", res.digest)}
	if res.tracedOnly() {
		doc["per_layer"] = res.layers
	} else {
		doc["end_to_end"] = endToEnd(res)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "record.json"), b, 0o644)
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit when the tree is a git work tree;
// benchmark checkouts usually are not, and the source digest identifies
// the code instead.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the root module's Go sources and go.mod (FNV-1a over
// sorted paths and contents), skipping build output and this directory.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	h := fnvOffset
	for _, f := range files { // WalkDir visits in lexical order
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h = fnvAdd(fnvAdd(h, []byte(f)), b)
	}
	return fmt.Sprintf("%016x", h)
}
