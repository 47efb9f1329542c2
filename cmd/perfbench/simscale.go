package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"disttime/internal/obs"
	"disttime/internal/scale"
)

// sim-scale: a seeded scale hierarchy of scaleRegions x scaleClusters x
// scaleMembers nodes on nproc shards, with K-sampled IM, run to
// scaleHorizon virtual seconds and sampled every scaleSample. Every
// round rebuilds the same seeded engine; the run's last step replays the
// seed on one shard and compares fingerprints.
const (
	scaleRegions  = 8
	scaleClusters = 10
	scaleMembers  = 25
	scaleHorizon  = 600.0
	scaleTau      = 60.0
	scaleSample   = 15.0 // check interval; runs are timed per scaleTau
	scaleK        = 8
	scaleDelta    = 1e-4
)

type simScale struct {
	tr     *tracer
	seed   uint64
	shards int
	eng    *scale.Engine
	fresh  bool

	fingerprint string
	events      uint64
	errMs       float64
	hubRatio    float64
	resets      uint64
	incons      uint64
	acc         scaleAcc
}

// scaleAcc accumulates a run's measurements.
type scaleAcc struct {
	periods blocks // untraced rounds
	// Traced rounds.
	nsPerEvent, perWindow, mergedPerK, imbalance, gcCycles, gcPauseMs []float64
}

func newSimScale(seed uint64, tr *tracer) workload {
	return &simScale{tr: tr, seed: seed, shards: runtime.NumCPU()}
}

func scaleConfig(seed uint64, shards int) scale.Config {
	return scale.Config{
		Topo:         scale.Topology{Regions: scaleRegions, Clusters: scaleClusters, Members: scaleMembers},
		Shards:       shards,
		Seed:         seed,
		Tau:          scaleTau,
		K:            scaleK,
		Delta:        scaleDelta,
		DriftMax:     0.99 * scaleDelta,
		InitialError: 0.05,
		Member:       scale.Band{Min: 0.0002, Max: 0.002},
		Uplink:       scale.Band{Min: 0.002, Max: 0.01},
		Backbone:     scale.Band{Min: 0.02, Max: 0.08},
		Rule:         scale.RuleIM,
	}
}

func (w *simScale) setup() error {
	eng, err := scale.New(scaleConfig(w.seed, w.shards))
	if err != nil {
		return err
	}
	w.eng, w.fresh = eng, true
	return nil
}

func (w *simScale) teardown() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
}

// scaleRun is what one seeded run produced.
type scaleRun struct {
	errMs     float64 // mean E over nodes and samples
	hubRatio  float64 // mean hub E / mean member E over the second half
	periodsUs []float64
	violation string
}

// runScale advances eng to the horizon in sample steps, checking at each
// sample that the mean |offset| stays within the mean E. It also reports
// the ratio of hub to member error over the run's second half; it is not
// checked, because hubs do not carry more error than members on every
// seed (CHANGES.md records the seeds).
func runScale(eng *scale.Engine, tr *tracer, root int32) scaleRun {
	var r scaleRun
	var sum, hub, member, periodUs float64
	var n int
	for t := scaleSample; t <= scaleHorizon+1e-9; t += scaleSample {
		sp := tr.begin("scale.Engine.Run", root)
		t0 := time.Now()
		eng.Run(t)
		periodUs += float64(time.Since(t0)) / 1e3
		tr.end(sp)
		if k := int(math.Round(t / scaleSample)); k%int(scaleTau/scaleSample) == 0 {
			r.periodsUs = append(r.periodsUs, periodUs)
			periodUs = 0
		}
		e, off := eng.MeanError(t), eng.MeanAbsOffset(t)
		if off > e && r.violation == "" {
			r.violation = fmt.Sprintf("sim-scale t=%v: mean |offset| %v exceeds mean E %v", t, off, e)
		}
		sum += e
		n++
		if t > scaleHorizon/2 {
			tiers := eng.ErrorByTier(t)
			hub += tiers.Hub
			member += tiers.Member
		}
	}
	r.hubRatio = hub / member
	r.errMs = 1e3 * sum / float64(n)
	return r
}

func (w *simScale) round(m *meter, traced bool) error {
	if !w.fresh {
		w.teardown()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	w.fresh = false
	root := w.tr.begin("sim-scale.round", 0)
	defer w.tr.end(root)
	var reg *obs.Registry
	var g0 gcStats
	if traced {
		reg = obs.NewRegistry()
		w.eng.Observe(reg)
		g0 = readGC()
	}
	c0 := cpuSeconds()
	var r scaleRun
	if err := m.work(func() error {
		r = runScale(w.eng, w.tr, root)
		return nil
	}); err != nil {
		return err
	}
	cpu := cpuSeconds() - c0
	m.attempted++
	if r.violation != "" {
		m.violate("%s", r.violation)
	}
	fp := w.eng.Fingerprint()
	if w.fingerprint == "" {
		w.fingerprint, w.events, w.errMs, w.hubRatio = fp, w.eng.Steps(), r.errMs, r.hubRatio
		w.resets, w.incons = w.eng.Resets(), w.eng.Inconsistencies()
	} else if fp != w.fingerprint || math.Float64bits(r.errMs) != math.Float64bits(w.errMs) {
		m.violate("sim-scale: seeded run did not repeat (fingerprint %s then %s)", w.fingerprint, fp)
	}
	if !traced {
		for _, x := range r.periodsUs {
			w.acc.periods.add(x)
		}
		return nil
	}
	g1 := readGC()
	ev := float64(w.eng.Steps())
	w.acc.nsPerEvent = append(w.acc.nsPerEvent, cpu*1e9/ev)
	w.acc.gcCycles = append(w.acc.gcCycles, float64(g1.cycles-g0.cycles))
	w.acc.gcPauseMs = append(w.acc.gcPauseMs, float64(g1.pauseNs-g0.pauseNs)/1e6)
	if win := reg.Counter("simshard_windows_total").Value(); win > 0 {
		w.acc.perWindow = append(w.acc.perWindow, ev/float64(win))
	}
	w.acc.mergedPerK = append(w.acc.mergedPerK, 1000*float64(reg.Counter("simshard_merged_events_total").Value())/ev)
	var most, total float64
	for i := 0; i < w.eng.Shards(); i++ {
		x := float64(reg.Counter(fmt.Sprintf("simshard_events_executed_total_s%d", i)).Value())
		most = max(most, x)
		total += x
	}
	w.acc.imbalance = append(w.acc.imbalance, most/(total/float64(w.eng.Shards())))
	return nil
}

func (w *simScale) finish(m *meter) error {
	if w.acc.periods.empty() {
		return errors.New("no untraced round")
	}
	// The seed replayed on one shard must walk through the same states.
	one, err := scale.New(scaleConfig(w.seed, 1))
	if err != nil {
		return err
	}
	r := runScale(one, &tracer{}, 0)
	fp := one.Fingerprint()
	one.Close()
	if fp != w.fingerprint || math.Float64bits(r.errMs) != math.Float64bits(w.errMs) {
		m.violate("sim-scale: %d shards fingerprint %s, 1 shard %s", w.shards, w.fingerprint, fp)
	}

	m.opsPerRound = float64(w.events)
	w.acc.periods.report(m)
	m.e2e["error_bound_ms"] = w.errMs
	// The engine runs no transactions; a transaction stamped C+E would
	// wait until C-E passes the stamp, 2E/(1-delta) of true time.
	m.e2e["commit_wait_ms"] = 2 * w.errMs / (1 - scaleDelta)
	if len(w.acc.nsPerEvent) > 0 {
		l := m.layer
		l["shard.events"] = float64(w.events)
		l["scale.ns_per_event"] = median(w.acc.nsPerEvent)
		l["shard.events_per_window"] = median(w.acc.perWindow)
		l["shard.merged_per_kevent"] = median(w.acc.mergedPerK)
		l["shard.imbalance"] = median(w.acc.imbalance)
		l["shard.busy_ratio"] = median(m.cpu) / (median(m.wall) * float64(w.shards))
		l["scale.resets"] = float64(w.resets)
		l["scale.inconsistencies"] = float64(w.incons)
		l["scale.hub_member_error_ratio"] = w.hubRatio
		l["go.gc_cycles"] = mean(w.acc.gcCycles)
		l["go.gc_pause_ms"] = mean(w.acc.gcPauseMs)
	}
	return nil
}

func (w *simScale) reset() {
	w.acc = scaleAcc{}
}
