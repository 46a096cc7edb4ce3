// Command rapidbench is the repository's one-command benchmark for the Rapid
// membership service. It drives whole clusters through the public entry
// points (core.StartCluster/JoinCluster, Cluster.Subscribe/Members/Stop) on
// the in-process simulated network and on real loopback TCP, checks the
// paper's guarantees after every phase, and prints every metric by name and
// unit.
//
// Workloads (see workloads.go for the reason each exists):
//
//	bootstrap-1000  simnet, N=1000, every member joins one seed at once
//	churn-200       simnet, N=200, idle window then crash-2/join-2 rounds
//	tcp-50          50 members on 127.0.0.1, idle window then stop-1/join-1 rounds
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash rapidbench/run.sh --workload churn-200 --seed 1 --seconds 30 --trace 0
//	bash rapidbench/run.sh --all --seed 1 --seconds 30
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with --trace 1 the run goes through a
// transport.Network interposer and adds a replay of each layer's public
// functions, and the JSON object carries the per-layer metrics. --all runs
// every workload untraced and traced and prints the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is the benchmark's machine-readable verdict; it is printed as the
// last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run together with the sample count
// behind each, which the human-readable table states.
type report struct {
	metrics map[string]metric
	samples map[string]int
	order   []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records one metric; samples is the number of observations behind it
// (0 when it is a single measurement or a count).
func (r *report) set(name, unit string, value float64, samples int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.samples[name] = samples
}

func (r *report) write(w io.Writer) {
	for _, name := range r.order {
		m := r.metrics[name]
		n := ""
		if s := r.samples[name]; s > 0 {
			n = fmt.Sprintf("(n=%d)", s)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", name, m.Value, m.Unit, n)
	}
}

// only keeps the named metrics.
func (r *report) only(names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, name := range names {
		if m, ok := r.metrics[name]; ok {
			out[name] = m
		}
	}
	return out
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		all      = flag.Bool("all", false, "run every workload untraced and traced and print the tracing overhead")
		outDir   = flag.String("out", ".bench_build", "directory for run records and traces")
	)
	flag.Parse()
	if *seconds < 1 {
		fail("--seconds must be at least 1")
	}
	if *all {
		os.Exit(runAll(*seed, *seconds, *outDir))
	}
	w, ok := lookupWorkload(*workload)
	if !ok {
		fail(fmt.Sprintf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	res, _ := runAndPrint(w, *seed, *seconds, *trace == 1, *outDir)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(line))
}

func fail(msg string) {
	fmt.Fprintf(os.Stderr, "rapidbench: %s\n", msg)
	os.Exit(2)
}

// runOne runs one workload and selects the metric set the mode reports.
func runOne(w workload, seed int64, seconds int, traced bool, outDir string) (result, *report, runRecord) {
	rec := newRunRecord(w, seed, seconds, traced)
	steal := stealSeconds()
	rep, acct := w.run(seed, time.Duration(seconds)*time.Second, traced, outDir)
	rec.StealS = stealSeconds() - steal
	names := endToEndNames
	if traced {
		names = perLayerNames
	}
	for _, name := range names {
		if _, ok := rep.metrics[name]; !ok {
			acct.violate("metric %s was not measured", name)
		}
	}
	rep.set("failed_pct", "%", acct.failedPct(), acct.attempted)
	res := result{
		Correct:   acct.failed == 0,
		Attempted: max(acct.attempted, 1),
		Failed:    acct.failed,
		Metrics:   rep.only(names),
	}
	rec.Violations = acct.violations
	return res, rep, rec
}

// runAndPrint runs one workload, prints its record and every metric with its
// unit and sample count, and saves the record under outDir.
func runAndPrint(w workload, seed int64, seconds int, traced bool, outDir string) (result, *report) {
	res, rep, rec := runOne(w, seed, seconds, traced, outDir)
	rec.write(os.Stdout)
	fmt.Printf("%s (traced=%v): correct=%v attempted=%d failed=%d\n", w.Name, traced, res.Correct, res.Attempted, res.Failed)
	rep.write(os.Stdout)
	if err := saveRecord(outDir, rec, res); err != nil {
		fmt.Fprintf(os.Stderr, "rapidbench: %v\n", err)
	}
	return res, rep
}

// runAll is the one-command mode: every workload untraced, then traced, and
// the tracing overhead on each end-to-end metric the traced run repeats.
func runAll(seed int64, seconds int, outDir string) int {
	code := 0
	for _, w := range workloads {
		plain, plainRep := runAndPrint(w, seed, seconds, false, outDir)
		traced, tracedRep := runAndPrint(w, seed, seconds, true, outDir)
		fmt.Printf("%s tracing overhead (traced - untraced):\n", w.Name)
		for _, name := range tracedEndToEnd {
			p, t := plainRep.metrics[name], tracedRep.metrics["traced."+name]
			fmt.Printf("  %-20s %12.6g -> %12.6g %-3s (%+.1f%%)\n", name, p.Value, t.Value, p.Unit, 100*(t.Value-p.Value)/p.Value)
		}
		for _, r := range []result{plain, traced} {
			if !r.Correct || r.Failed > 0 {
				code = 1
			}
		}
	}
	return code
}

// runRecord is the host and input description every result carries.
type runRecord struct {
	Workload   string            `json:"workload"`
	Params     map[string]string `json:"params"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Traced     bool              `json:"traced"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	CPUModel   string            `json:"cpu_model"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Started    string            `json:"started"`
	// StealS is the CPU time the hypervisor took from this machine during
	// the run; on a shared host it explains runs that drift together.
	StealS     float64  `json:"steal_s"`
	Violations []string `json:"violations,omitempty"`
}

func newRunRecord(w workload, seed int64, seconds int, traced bool) runRecord {
	return runRecord{
		Workload:   w.Name,
		Params:     w.params(),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commitOf("."),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func (r runRecord) write(w io.Writer) {
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var params []string
	for _, k := range keys {
		params = append(params, k+"="+r.Params[k])
	}
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%d traced=%v %s\n", r.Workload, r.Seed, r.Seconds, r.Traced, strings.Join(params, " "))
	fmt.Fprintf(w, "host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s steal=%.2fs\n", r.GOMAXPROCS, r.NumCPU, r.CPUModel, r.GoVersion, r.Commit, r.StealS)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

// saveRecord writes the run record and its result under dir/results.
func saveRecord(dir string, rec runRecord, res result) error {
	path := filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, boolInt(rec.Traced)))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("save run record: %w", err)
	}
	data, err := json.MarshalIndent(struct {
		Record runRecord `json:"record"`
		Result result    `json:"result"`
	}{rec, res}, "", "  ")
	if err != nil {
		return fmt.Errorf("save run record: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("save run record: %w", err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealSeconds reads the machine's total steal time from /proc/stat (0 where
// it is not available).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	jiffies, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return jiffies / 100
}

// commitOf reads the checked-out commit from the repository's .git
// directory without running git; a checkout without one reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == name {
			return id
		}
	}
	return "unknown"
}
