package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/datagen"
)

// stamp identifies where and on what a result was measured.
type stamp struct {
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Revision   string         `json:"revision"`
	Source     string         `json:"sourceDigest"`
	Seed       int64          `json:"seed"`
	Users      int            `json:"users"`
	Rows       map[string]int `json:"rows"`
}

func newStamp(root string, seed int64, data *datagen.Marketplace) stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   gitRevision(root),
		Source:     sourceDigest(root),
		Seed:       seed,
		Users:      data.Cfg.Users,
		Rows: map[string]int{
			"Users": len(data.Users), "Prefs": len(data.Prefs), "Products": len(data.Products),
			"Orders": len(data.Orders), "Carts": len(data.Carts), "Visits": len(data.Visits),
		},
	}
}

// host is the part of a stamp two compared results must share: the
// machine, the toolchain and the data size. The revision (what an A/B run
// varies) and the seed may differ.
func (s stamp) host() string {
	rows, _ := json.Marshal(s.Rows)
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s users=%d rows=%s", s.CPU, s.NProc, s.GOMAXPROCS, s.Go, s.Users, rows)
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

// gitRevision is the checkout's commit, "none" outside a git work tree
// (the source digest then identifies the code).
func gitRevision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and go.mod (the benchmark's
// own directory and dot-directories excluded), identifying the code under
// test where no git revision is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resultFile is what every run writes next to its spans.
type resultFile struct {
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Stamp     stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// compareMain compares two sets of result files (an A/B run: base and
// head, each run on several seeds) metric by metric, and refuses when the
// results were not all measured on the same host, toolchain and data size.
func compareMain(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ExitOnError)
	base := fl.String("base", "", "glob of the base side's result files")
	head := fl.String("head", "", "glob of the head side's result files")
	_ = fl.Parse(args)
	load := func(glob string) ([]resultFile, error) {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			return nil, fmt.Errorf("no result files match %q", glob)
		}
		var out []resultFile
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r resultFile
			if err := json.Unmarshal(raw, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	b, err := load(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	h, err := load(*head)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	return compareResults(b, h)
}

func compareResults(base, head []resultFile) int {
	want := base[0].Stamp.host()
	for _, r := range append(append([]resultFile(nil), base...), head...) {
		if h := r.Stamp.host(); h != want {
			fmt.Fprintf(os.Stderr, "compare: refusing to compare results from different hosts or data sizes:\n  %s\n  %s\n", want, h)
			return 2
		}
	}
	type key struct {
		workload string
		trace    int
	}
	group := func(rs []resultFile) map[key]map[string][]float64 {
		out := map[key]map[string][]float64{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			if out[k] == nil {
				out[k] = map[string][]float64{}
			}
			for m, v := range r.Metrics {
				out[k][m] = append(out[k][m], v)
			}
		}
		return out
	}
	gb, gh := group(base), group(head)
	keys := make([]key, 0, len(gb))
	for k := range gb {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].workload < keys[j].workload || keys[i].workload == keys[j].workload && keys[i].trace < keys[j].trace
	})
	fmt.Printf("host: %s\n", want)
	for _, k := range keys {
		fmt.Printf("%s (trace %d)\n  %-40s %12s %12s %8s %10s\n", k.workload, k.trace, "metric", "base_median", "head_median", "delta", "base_iqr")
		names := make([]string, 0, len(gb[k]))
		for m := range gb[k] {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			bv, hv := gb[k][m], gh[k][m]
			if len(hv) == 0 {
				continue
			}
			bm, hm := median(bv), median(hv)
			delta := 0.0
			if bm != 0 {
				delta = 100 * (hm - bm) / bm
			}
			q1, q3 := quartiles(bv)
			spread := 0.0
			if bm != 0 {
				spread = 100 * (q3 - q1) / bm
			}
			fmt.Printf("  %-40s %12.4g %12.4g %+7.1f%% %9.1f%%\n", m, bm, hm, delta, spread)
		}
	}
	return 0
}
