// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time budget, checks the
// program's outputs against independent computations, and prints one
// JSON result line:
//
//	perfbench --workload udp-serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured on rounds that
// alternate with untraced ones so the tracing overhead is reported too.
// README.md describes the workloads, the metrics, and how to run the
// steadiness and compare tools.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one benchmark workload. A run builds it (setup, timed and
// repeated), executes whole rounds of fixed work until the time budget
// is spent, then checks and reports.
type workload interface {
	// setup builds the system under test; teardown releases it. A run
	// calls setup several times to time it and keeps the last build.
	setup() error
	teardown()
	// round runs one round of the workload's fixed work, recording its
	// timings in m. traced rounds also record spans and layer timings.
	round(m *meter, traced bool) error
	// reset drops the measurements of the warm-up rounds.
	reset()
	// finish runs the end-of-run checks and fills m's results.
	finish(m *meter) error
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64, tr *tracer) workload{
	"udp-serve":   newUDPServe,
	"udp-sync":    newUDPSync,
	"sim-service": newSimService,
	"sim-scale":   newSimScale,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	tr := &tracer{}
	if *trace == 1 {
		tr.start()
	}
	w := mk(*seed, tr)
	host := readHost()
	res, err := run(w, tr, *seconds, *trace == 1)
	host.finish()
	if err != nil {
		fail(err)
	}
	if *trace == 1 {
		res.layer["host.steal_pct"] = host.StealPct
		if err := completeLayers(*name, res.layer); err != nil {
			fail(err)
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := tr.write(path); err != nil {
			fail(fmt.Errorf("write spans: %w", err))
		}
		fmt.Printf("spans %d written to %s\n", tr.count(), path)
	}
	if err := report(os.Stdout, *name, host, res, *trace == 1); err != nil {
		fail(err)
	}
}

// setupRepeats is how many times a run builds its workload before its
// rounds; setup_s is the median over these builds and any the rounds
// make (the simulators rebuild their seeded system every round), so slow
// builds (a cold page cache, a GC, a late wake-up) do not move it: a
// udp-serve build takes a fraction of a millisecond, and the median of
// five builds varied threefold from run to run.
const setupRepeats = 21

// minRounds is the fewest rounds a run makes, whatever its budget.
const minRounds = 4

// warmupShare is the share of the budget spent on warm-up rounds.
const warmupShare = 0.2

// runQuantile picks run_s from the rounds' wall times. The hypervisor
// steals 10-25% of this host's time in bursts; a low quantile reports
// the fixed work's speed on the rounds it stole least from. cpu_s, which
// steal does not inflate, is the median.
const runQuantile = 0.1

// run drives w: timed setups, rounds until the budget is spent, checks.
func run(w workload, tr *tracer, seconds float64, trace bool) (*meter, error) {
	m := newMeter()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			w.teardown()
		}
	}
	defer w.teardown()

	// The first warmupShare of the budget runs whole rounds whose
	// outputs are checked but whose timings are dropped: the host takes
	// seconds of sustained load to reach its steady speed.
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	warm := true
	for r := 0; r < minRounds || time.Since(start) < budget; r++ {
		if warm && time.Since(start) >= time.Duration(warmupShare*float64(budget)) {
			warm = false
			w.reset()
			m.wall, m.cpu, m.wallTraced = nil, nil, nil
		}
		// A traced run alternates untraced and traced rounds, so the
		// difference between the two halves is the tracing overhead.
		traced := trace && r%2 == 1
		m.traced = traced
		tr.on.Store(traced)
		err := w.round(m, traced)
		tr.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		m.rounds++
	}
	if err := w.finish(m); err != nil {
		return nil, err
	}
	if trace {
		m.layer["trace.overhead_pct"] = 100 * (median(m.wallTraced)/median(m.wall) - 1)
	}
	m.e2e["setup_s"] = median(m.setup)
	m.e2e["run_s"] = quantile(m.wall, runQuantile)
	m.e2e["cpu_s"] = median(m.cpu)
	m.e2e["ops_per_s"] = m.opsPerRound / m.e2e["run_s"]
	m.e2e["peak_rss_mb"] = peakRSSMB()
	return m, nil
}

// units gives each end-to-end metric's unit, in BENCHMARK.json order.
var units = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"error_bound_ms", "ms"},
	{"commit_wait_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the host facts, every metric in readable form, each
// check violation, and last the JSON result line.
func report(out *os.File, name string, host *hostFacts, m *meter, trace bool) error {
	facts, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "host %s\n", facts)
	fmt.Fprintf(out, "workload %s: %d rounds, %d attempted, %d failed\n", name, m.rounds, m.attempted, m.failed)
	for _, f := range m.failures {
		fmt.Fprintf(out, "failed: %s\n", f)
	}
	for _, n := range m.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	for _, v := range m.violations {
		fmt.Fprintf(out, "VIOLATION: %s\n", v)
	}
	res := resultLine{
		Correct:   len(m.violations) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
	}
	if trace {
		for _, l := range layerUnits {
			v, ok := m.layer[l.name]
			if !ok {
				return fmt.Errorf("layer metric %s not measured", l.name)
			}
			res.Metrics[l.name] = metricValue{v, l.unit}
		}
	} else {
		for _, u := range units {
			v, ok := m.e2e[u.name]
			if !ok {
				return fmt.Errorf("metric %s not measured", u.name)
			}
			res.Metrics[u.name] = metricValue{v, u.unit}
		}
		for _, u := range units {
			fmt.Fprintf(out, "%-15s %14.6g %s\n", u.name, m.e2e[u.name], u.unit)
		}
		for _, t := range []string{"p90_us", "p99_us"} {
			fmt.Fprintf(out, "%-15s %14.6g us  (tail, not bounded)\n", t, m.tails[t])
		}
		for _, a := range aliases[name] {
			fmt.Fprintf(out, "%-15s %14.6g %s  (= %s)\n", a.design, a.scale*m.e2e[a.metric], a.unit, a.metric)
		}
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// aliases names, per workload, the metrics the benchmark's design table
// gives workload-specific names; the JSON line uses the generic names so
// every workload reports the same set.
var aliases = map[string][]struct {
	design, metric string
	scale          float64
	unit           string
}{
	"udp-serve": {
		{"serve_qps", "ops_per_s", 1, "1/s"},
		{"serve_p50_us", "p50_us", 1, "us"},
	},
	"udp-sync": {
		{"query_p50_us", "p50_us", 1, "us"},
	},
}
