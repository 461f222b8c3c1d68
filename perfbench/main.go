// Command perfbench is the repository benchmark: it runs one named
// workload against the durable stream engine (or a loopback cluster of
// remote shard servers) for a fixed time, checks the final graph against
// a reference built directly with aspen, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics from spans
// recorded around each layer's entry points. The last line of standard
// output is the JSON result.
//
//	go build -o perfbench . && ./perfbench --workload small-fresh --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	window  time.Duration
	tr      *tracer // nil: untraced run
	dataDir string  // engine data directories live under here
	log     io.Writer
}

// outcome is a finished run: the correctness verdict, the operation
// counts, and both metric sets (a traced run still computes the
// end-to-end set, which the trace file keeps for the overhead check).
type outcome struct {
	correct           bool
	attempted, failed int
	e2e, layer        map[string]metric
	lostStages        int
	phase             [2]int64 // traced phase, ns since the tracer origin
}

// workloads are described, with the reason for each, in README.md and
// BENCHMARK.json.
var workloads = []struct {
	name string
	run  func(runConfig) (*outcome, error)
}{
	{"small-fresh", runSmallFresh},
	{"bulk-fresh", runBulkFresh},
	{"remote-mix", runRemoteMix},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: small-fresh, bulk-fresh or remote-mix")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same base graph and batches")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	outdir := fs.String("outdir", ".bench_build", "directory for engine data and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var drive func(runConfig) (*outcome, error)
	for _, w := range workloads {
		if w.name == *name {
			drive = w.run
		}
	}
	if drive == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (small-fresh|bulk-fresh|remote-mix), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	// A run must end within 180 s; give up before that rather than hang.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded 170s, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintf(stdout, "env: go=%s GOMAXPROCS=%d nproc=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%d trace=%d fsync=per-commit ckpt_every=256\n", *name, *seed, *seconds, *trace)

	dataDir := filepath.Join(*outdir, "data", *name+"-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dataDir)
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, dataDir: dataDir, log: stdout}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	out, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range sortedKeys(out.e2e) {
		fmt.Fprintf(stdout, "e2e %-22s %14.4f %s\n", n, out.e2e[n].Value, out.e2e[n].Unit)
	}
	metrics := out.e2e
	if cfg.tr != nil {
		metrics = out.layer
		phase := time.Duration(out.phase[1] - out.phase[0])
		printTable(stdout, summarize(cfg.tr.spans, out.phase[0], out.phase[1]), phase)
		for _, n := range sortedKeys(out.layer) {
			fmt.Fprintf(stdout, "layer %-36s %14.4f %s\n", n, out.layer[n].Value, out.layer[n].Unit)
		}
		path, err := writeTrace(filepath.Join(*outdir, "trace"), traceFile{
			Workload: *name, Seed: *seed, PhaseNS: out.phase,
			EndToEnd: out.e2e, PerLayer: out.layer, LostStage: out.lostStages, Spans: cfg.tr.spans,
		})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s (%d commits without a stage record)\n", len(cfg.tr.spans), path, out.lostStages)
	}
	fmt.Fprintf(stdout, "correct=%v attempted=%d failed=%d ops_failed_frac=%.6f\n",
		out.correct, out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)))
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
