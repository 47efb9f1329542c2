package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// meter collects one run's measurements.
type meter struct {
	setup      []float64 // seconds per setup
	wall       []float64 // seconds of fixed work per untraced round
	cpu        []float64 // process CPU seconds of the same work
	wallTraced []float64 // seconds of fixed work per traced round
	traced     bool      // the current round is traced
	rounds     int

	opsPerRound       float64 // operations in one round's fixed work, for ops_per_s
	attempted, failed int64
	failures          []string // why operations failed, one line per cause
	notes             []string // known faults that come and go, with their counts
	violations        []string // failed output checks
	// stale counts udp-serve replies that missed the host window only
	// because the tick cache served an honest reading past its widening.
	stale int64

	e2e   map[string]float64
	tails map[string]float64 // latency tails, printed only
	layer map[string]float64
}

func newMeter() *meter {
	return &meter{e2e: map[string]float64{}, tails: map[string]float64{}, layer: map[string]float64{}}
}

// work times fn as the round's fixed work: wall time and process CPU
// time (user + sys of every thread, so server goroutines count too).
func (m *meter) work(fn func() error) error {
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	m.record(time.Since(t0).Seconds(), cpuSeconds()-c0)
	return err
}

// record adds one round's fixed-work wall and CPU seconds.
func (m *meter) record(wall, cpu float64) {
	if m.traced {
		m.wallTraced = append(m.wallTraced, wall)
	} else {
		m.wall = append(m.wall, wall)
		m.cpu = append(m.cpu, cpu)
	}
}

// fail counts n failed operations and records their cause once.
func (m *meter) fail(n int64, cause string) {
	m.failed += n
	if !slices.Contains(m.failures, cause) {
		m.failures = append(m.failures, cause)
	}
}

// violate records a failed output check; at most a few are kept verbatim.
func (m *meter) violate(format string, args ...any) {
	if len(m.violations) < 20 {
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
}

// cpuSeconds returns the process's user + system CPU time.
func cpuSeconds() float64 {
	user, sys := userSysSeconds()
	return user + sys
}

// userSysSeconds returns user and system CPU time separately.
func userSysSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN(), math.NaN()
	}
	return tvSeconds(ru.Utime), tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns the process's peak resident set size in MB, from
// VmHWM: getrusage's maxrss would also count the shell that exec'd us.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockSize is how many latency samples make one block.
const blockSize = 1000

// blocks turns a stream of latency samples into per-block p50 and p90
// figures; a run reports the medians over its blocks, so one stalled
// stretch of a run moves one block, not the run's result.
type blocks struct {
	buf           []float64
	p50, p90, p99 []float64
}

func (b *blocks) add(x float64) {
	b.buf = append(b.buf, x)
	if len(b.buf) == blockSize {
		b.p50 = append(b.p50, quantile(b.buf, 0.50))
		b.p90 = append(b.p90, quantile(b.buf, 0.90))
		b.p99 = append(b.p99, quantile(b.buf, 0.99))
		b.buf = b.buf[:0]
	}
}

func (b *blocks) empty() bool { return len(b.p50) == 0 && len(b.buf) == 0 }

// report sets p50_us from the median block p50, and the unbounded tails
// p90_us and p99_us, which are printed but not part of the result line:
// this host's millisecond stalls move them by more than any bound allows.
// A run too short to fill one block reports the partial block.
func (b *blocks) report(m *meter) {
	if len(b.p50) == 0 {
		m.e2e["p50_us"] = quantile(b.buf, 0.50)
		m.tails["p90_us"], m.tails["p99_us"] = quantile(b.buf, 0.90), quantile(b.buf, 0.99)
		return
	}
	m.e2e["p50_us"] = median(b.p50)
	m.tails["p90_us"], m.tails["p99_us"] = median(b.p90), median(b.p99)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gcStats is a snapshot of the Go runtime's GC counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
	mallocs uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, mallocs: ms.Mallocs}
}

// hostFacts records the machine a run measured on, so a noisy run can be
// told apart from a slow program.
type hostFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go"`
	StealTicks uint64  `json:"steal_ticks"` // /proc/stat steal across the run
	TotalTicks uint64  `json:"total_ticks"` // all /proc/stat cpu ticks across the run
	StealPct   float64 `json:"steal_pct"`

	steal0, total0 uint64
}

func readHost() *hostFacts {
	h := &hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernelRelease(),
		GoVersion:  runtime.Version(),
	}
	h.steal0, h.total0 = cpuTicks()
	return h
}

func (h *hostFacts) finish() {
	steal, total := cpuTicks()
	h.StealTicks = steal - h.steal0
	h.TotalTicks = total - h.total0
	if h.TotalTicks > 0 {
		h.StealPct = 100 * float64(h.StealTicks) / float64(h.TotalTicks)
	}
}

// cpuTicks reads the aggregate steal and total ticks from /proc/stat;
// zeros where the file is unavailable.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9, 10) are already in user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// span is one traced interval: a call into a layer made by the
// benchmark's own code.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    atomic.Bool // set for traced rounds only
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) start() { t.base = time.Now() }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on.Load() {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds a finished span whose times were taken by the caller.
func (t *tracer) record(name string, parent int32, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Parent: parent, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
