package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is the block written with every result, so that a run on
// another execution tier, toolchain or source tree is visibly not
// comparable.
func environment(backends map[string]string) map[string]any {
	model, flags := cpuInfo()
	cpus := 0
	if m, err := allowedCPUs(); err == nil {
		cpus = m.count()
	}
	return map[string]any{
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":     model,
		"cpu_bmi2":      flags["bmi2"],
		"cpu_aes":       flags["aes"],
		"nproc":         runtime.NumCPU(),
		"cpus_allowed":  cpus,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"SEPE_NOHW":     os.Getenv("SEPE_NOHW"),
		"backends":      backends,
	}
}

func cpuInfo() (model string, flags map[string]bool) {
	flags = map[string]bool{}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", flags
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if len(flags) == 0 {
				for _, f := range strings.Fields(v) {
					flags[f] = true
				}
			}
		}
	}
	return model, flags
}

// gitCommit is the commit of the working directory when it is the root
// of a git work tree, and "unknown" otherwise (an exported checkout).
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources, assembly and go.mod
// (outside hidden directories), identifying the program under test
// where no commit is available.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
