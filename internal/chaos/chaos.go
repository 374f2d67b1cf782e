// Package chaos is a deterministic fault-injection layer for the resctrl
// substrate. It wraps any resctrl.System and perturbs the two directions
// a cache-partitioning controller talks to hardware:
//
//   - Monitoring (Counters reads): complete counter dropout, frozen/stale
//     readings that repeat the previous snapshot, and multiplicative
//     noise jitter on per-period instruction/cycle/occupancy/traffic
//     deltas — the failure modes of real CMT/MBM counters (RMID
//     recycling, MSR read glitches, sampling skew).
//   - Actuation (SetCBM writes): schemata-write rejection (the write
//     errors and nothing changes) and delayed actuation (the write is
//     accepted but lands k counter-reads late), as happens when the
//     resctrl filesystem is contended or a CLOS update races the
//     monitoring loop.
//
// Every fault is drawn from a seeded PRNG in a fixed call order, so a run
// replays identically for a fixed (Config, seed) — a failing soak seed is
// a reproducible test case. The DICER paper's Listing 3 reset/validate
// step exists precisely because production controllers face these faults;
// this package lets the test suite face them systematically.
//
// The fault clock ticks on Counters() calls: the monitoring loop reads
// counters exactly once per period (resctrl.Meter.Sample), so one read is
// one period. Pending delayed writes land at the start of the read that
// falls DelayPeriods after they were issued.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// ErrInjected tags every error the chaos layer fabricates. Harnesses that
// tolerate injected faults (the soak loop, Scenario.Run with chaos
// enabled) match it with errors.Is and keep running; any other error
// stays fatal.
var ErrInjected = errors.New("chaos: injected fault")

// Config is a fault schedule. The zero value injects nothing; every knob
// is independent so schedules can isolate one fault class or combine
// them. Probabilities are per counter read (monitoring faults) or per
// SetCBM call (actuation faults).
type Config struct {
	// Name labels the schedule in reports and soak results.
	Name string

	// DropoutProb is the probability that a counter read returns an
	// empty snapshot (no cores, no groups) — a complete monitoring
	// dropout. The meter re-baselines on the empty reading, so the next
	// period sees a spurious bandwidth spike, exactly as a userspace
	// controller experiences an MSR read glitch.
	DropoutProb float64

	// FreezeProb is the probability that a freeze begins: the next
	// FreezePeriods reads (including this one) re-serve the previous
	// snapshot verbatim, time included. Deltas collapse to zero — the
	// counters look alive but stale.
	FreezeProb float64
	// FreezePeriods is the length of one freeze in counter reads
	// (default 1 when a freeze fires with a zero length).
	FreezePeriods int

	// JitterPct applies multiplicative noise to per-period deltas of
	// instructions, cycles and memory traffic, and to instantaneous
	// occupancy: each quantity is scaled by a factor drawn uniformly
	// from [1-JitterPct, 1+JitterPct]. Cumulative counters stay
	// monotone (factors are positive); only the per-period readings the
	// controller consumes get noisy.
	JitterPct float64

	// WriteFailProb is the probability that SetCBM is rejected with an
	// error wrapping ErrInjected; the installed mask does not change.
	WriteFailProb float64

	// WriteDelayProb is the probability that an accepted SetCBM is
	// deferred: it returns nil immediately but takes effect
	// DelayPeriods counter reads later.
	WriteDelayProb float64
	// DelayPeriods is the actuation delay in counter reads (default 1
	// when a delay fires with a zero length).
	DelayPeriods int
}

// Validate reports schedule configuration errors.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropoutProb", c.DropoutProb},
		{"FreezeProb", c.FreezeProb},
		{"WriteFailProb", c.WriteFailProb},
		{"WriteDelayProb", c.WriteDelayProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s %g outside [0,1]", p.name, p.v)
		}
	}
	if c.JitterPct < 0 || c.JitterPct >= 1 {
		return fmt.Errorf("chaos: JitterPct %g outside [0,1)", c.JitterPct)
	}
	if c.FreezePeriods < 0 || c.DelayPeriods < 0 {
		return fmt.Errorf("chaos: negative fault duration (freeze %d, delay %d)",
			c.FreezePeriods, c.DelayPeriods)
	}
	return nil
}

// Active reports whether the schedule injects any fault at all.
func (c Config) Active() bool {
	return c.DropoutProb > 0 || c.FreezeProb > 0 || c.JitterPct > 0 ||
		c.WriteFailProb > 0 || c.WriteDelayProb > 0
}

// Stats counts the faults a System actually injected, so tests can assert
// a schedule fired and reports can show what a run survived. The JSON
// tags are part of the trace-record schema (internal/obs) — per-period
// fault annotations embed a Stats delta.
type Stats struct {
	Reads          int `json:"reads"`           // Counters() calls observed
	Dropouts       int `json:"dropouts"`        // empty snapshots served
	FrozenReads    int `json:"frozen"`          // stale snapshots served
	JitteredReads  int `json:"jittered"`        // reads with noise applied
	Writes         int `json:"writes"`          // SetCBM calls observed
	WritesRejected int `json:"writes_rejected"` // SetCBM calls errored
	WritesDelayed  int `json:"writes_delayed"`  // SetCBM calls deferred
}

// Sub returns the per-field difference s - prev: the faults injected
// between two snapshots of a running system's cumulative stats. The
// observability recorder uses it for per-period fault annotations.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:          s.Reads - prev.Reads,
		Dropouts:       s.Dropouts - prev.Dropouts,
		FrozenReads:    s.FrozenReads - prev.FrozenReads,
		JitteredReads:  s.JitteredReads - prev.JitteredReads,
		Writes:         s.Writes - prev.Writes,
		WritesRejected: s.WritesRejected - prev.WritesRejected,
		WritesDelayed:  s.WritesDelayed - prev.WritesDelayed,
	}
}

// Add returns the per-field sum s + d — the inverse of Sub, for
// re-aggregating per-period fault deltas.
func (s Stats) Add(d Stats) Stats {
	return Stats{
		Reads:          s.Reads + d.Reads,
		Dropouts:       s.Dropouts + d.Dropouts,
		FrozenReads:    s.FrozenReads + d.FrozenReads,
		JitteredReads:  s.JitteredReads + d.JitteredReads,
		Writes:         s.Writes + d.Writes,
		WritesRejected: s.WritesRejected + d.WritesRejected,
		WritesDelayed:  s.WritesDelayed + d.WritesDelayed,
	}
}

// Injected reports whether any fault at all is counted (reads and writes
// are bookkeeping, not faults).
func (s Stats) Injected() bool {
	return s.Dropouts > 0 || s.FrozenReads > 0 || s.JitteredReads > 0 ||
		s.WritesRejected > 0 || s.WritesDelayed > 0
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d (dropout=%d frozen=%d jittered=%d) writes=%d (rejected=%d delayed=%d)",
		s.Reads, s.Dropouts, s.FrozenReads, s.JitteredReads,
		s.Writes, s.WritesRejected, s.WritesDelayed)
}

// pendingWrite is a delayed SetCBM waiting to land.
type pendingWrite struct {
	due  int // lands when reads >= due
	clos int
	mask uint64
}

// System wraps an inner resctrl.System with a deterministic fault
// schedule. It implements resctrl.System; allocation-independent calls
// (NumWays, NumClos, CBM, ...) pass through untouched.
type System struct {
	inner resctrl.System
	cfg   Config
	rng   *rand.Rand

	stats      Stats
	freezeLeft int
	lastInner  sim.Snapshot // previous snapshot of the inner system
	lastOut    sim.Snapshot // previous snapshot served to the caller
	haveLast   bool
	pending    []pendingWrite
	lastIssued map[int]uint64 // clos -> mask of the newest SetCBM attempt
}

// New wraps inner with the given fault schedule and seed. It panics on an
// invalid schedule (construct-time misuse, like MustNew elsewhere in the
// repository); use Config.Validate to check first.
func New(inner resctrl.System, cfg Config, seed int64) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &System{
		inner:      inner,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(seed)),
		lastIssued: map[int]uint64{},
	}
}

// Stats returns the fault counts so far.
func (s *System) Stats() Stats { return s.stats }

// ActuationClean reports whether the installed masks agree with the
// newest SetCBM attempt for every CLOS written so far — i.e. no write is
// in flight and no rejection left the hardware behind the caller's
// intent. The invariant checker asserts intent/installed consistency
// only when this holds (quiescence).
func (s *System) ActuationClean() bool {
	if len(s.pending) > 0 {
		return false
	}
	for clos, mask := range s.lastIssued {
		if s.inner.CBM(clos) != mask {
			return false
		}
	}
	return true
}

// Drain applies all pending delayed writes immediately, returning the
// number landed. Soak harnesses call it before final invariant checks.
func (s *System) Drain() int {
	n := len(s.pending)
	s.flushDue(1 << 30)
	return n
}

// flushDue lands every pending write with due <= now, in issue order.
func (s *System) flushDue(now int) {
	kept := s.pending[:0]
	for _, w := range s.pending {
		if w.due <= now {
			// The write was validated when accepted; the inner system
			// may still reject it (it cannot: masks were legal then and
			// legality is state-independent), in which case it is lost —
			// which is itself a fault the controller must survive.
			_ = s.inner.SetCBM(w.clos, w.mask)
		} else {
			kept = append(kept, w)
		}
	}
	s.pending = kept
}

// NumWays implements resctrl.System.
func (s *System) NumWays() int { return s.inner.NumWays() }

// NumClos implements resctrl.System.
func (s *System) NumClos() int { return s.inner.NumClos() }

// SetCBM implements resctrl.System, injecting write rejection and delayed
// actuation per the schedule.
func (s *System) SetCBM(clos int, mask uint64) error {
	s.stats.Writes++
	s.lastIssued[clos] = mask
	if s.cfg.WriteFailProb > 0 && s.rng.Float64() < s.cfg.WriteFailProb {
		s.stats.WritesRejected++
		return fmt.Errorf("%w: schemata write rejected (clos %d, mask %#x)",
			ErrInjected, clos, mask)
	}
	// A newer write to a CLOS supersedes that CLOS's pending delayed
	// writes — the final schemata write wins, as on real hardware; an
	// old write must not land later and clobber a newer one.
	s.dropPending(clos)
	if s.cfg.WriteDelayProb > 0 && s.rng.Float64() < s.cfg.WriteDelayProb {
		delay := s.cfg.DelayPeriods
		if delay < 1 {
			delay = 1
		}
		s.stats.WritesDelayed++
		s.pending = append(s.pending, pendingWrite{
			due: s.stats.Reads + delay, clos: clos, mask: mask,
		})
		return nil
	}
	return s.inner.SetCBM(clos, mask)
}

// dropPending discards pending delayed writes for a CLOS.
func (s *System) dropPending(clos int) {
	kept := s.pending[:0]
	for _, w := range s.pending {
		if w.clos != clos {
			kept = append(kept, w)
		}
	}
	s.pending = kept
}

// CBM implements resctrl.System: it reads the installed (inner) mask —
// configuration reads are reliable even when monitoring counters are not.
func (s *System) CBM(clos int) uint64 { return s.inner.CBM(clos) }

// SetMBACap implements resctrl.System (passes through unfaulted; the
// schedule targets the CAT/CMT/MBM path the DICER controller exercises).
func (s *System) SetMBACap(clos int, gbps float64) error { return s.inner.SetMBACap(clos, gbps) }

// LinkCapacityGbps implements resctrl.System.
func (s *System) LinkCapacityGbps() float64 { return s.inner.LinkCapacityGbps() }

// Counters implements resctrl.System. Each call advances the fault clock:
// due delayed writes land first, then the schedule decides between a
// frozen replay, a dropout, and a (possibly jittered) real reading.
func (s *System) Counters() sim.Snapshot {
	s.stats.Reads++
	s.flushDue(s.stats.Reads)

	// Frozen: re-serve the previous output verbatim (time included, so
	// the meter sees dt = 0 — counters alive but stale).
	if s.freezeLeft > 0 && s.haveLast {
		s.freezeLeft--
		s.stats.FrozenReads++
		return cloneCounters(s.lastOut)
	}
	if s.cfg.FreezeProb > 0 && s.rng.Float64() < s.cfg.FreezeProb && s.haveLast {
		n := s.cfg.FreezePeriods
		if n < 1 {
			n = 1
		}
		s.freezeLeft = n - 1
		s.stats.FrozenReads++
		return cloneCounters(s.lastOut)
	}

	cur := s.inner.Counters()

	// Dropout: serve an empty snapshot. The inner baseline still
	// advances, so recovery exhibits the re-baselining spike a real
	// controller sees after an MSR read glitch.
	if s.cfg.DropoutProb > 0 && s.rng.Float64() < s.cfg.DropoutProb {
		s.stats.Dropouts++
		s.lastInner = cur
		out := sim.Snapshot{Time: cur.Time}
		s.lastOut = out
		s.haveLast = true
		return out
	}

	if s.cfg.JitterPct <= 0 || !s.haveLast {
		s.lastInner = cur
		s.lastOut = cur
		s.haveLast = true
		return cloneCounters(cur)
	}

	// Jitter: perturb per-period deltas multiplicatively and rebuild
	// cumulative counters on top of the previously served values, so the
	// stream the caller sees stays monotone while every per-period
	// reading is noisy.
	s.stats.JitteredReads++
	out := sim.Snapshot{Time: cur.Time}
	prevIn := indexCores(s.lastInner.Cores)
	prevOut := indexCores(s.lastOut.Cores)
	for _, c := range cur.Cores {
		pi, po := prevIn[c.Core], prevOut[c.Core]
		jc := c
		jc.Instructions = po.Instructions + (c.Instructions-pi.Instructions)*s.factor()
		jc.Cycles = po.Cycles + (c.Cycles-pi.Cycles)*s.factor()
		out.Cores = append(out.Cores, jc)
	}
	prevInG := indexGroups(s.lastInner.Clos)
	prevOutG := indexGroups(s.lastOut.Clos)
	for _, g := range cur.Clos {
		pi, po := prevInG[g.Clos], prevOutG[g.Clos]
		jg := g
		jg.OccupancyBytes = g.OccupancyBytes * s.factor()
		jg.MemBytes = po.MemBytes + (g.MemBytes-pi.MemBytes)*s.factor()
		out.Clos = append(out.Clos, jg)
	}
	s.lastInner = cur
	s.lastOut = out
	return cloneCounters(out)
}

// factor draws one multiplicative jitter factor from [1-j, 1+j].
func (s *System) factor() float64 {
	j := s.cfg.JitterPct
	return 1 - j + 2*j*s.rng.Float64()
}

func indexCores(cs []sim.CoreCounters) map[int]sim.CoreCounters {
	m := make(map[int]sim.CoreCounters, len(cs))
	for _, c := range cs {
		m[c.Core] = c
	}
	return m
}

func indexGroups(gs []sim.ClosCounters) map[int]sim.ClosCounters {
	m := make(map[int]sim.ClosCounters, len(gs))
	for _, g := range gs {
		m[g.Clos] = g
	}
	return m
}

// cloneCounters deep-copies a snapshot so callers cannot alias the
// wrapper's retained state.
func cloneCounters(c sim.Snapshot) sim.Snapshot {
	out := sim.Snapshot{Time: c.Time}
	out.Cores = append([]sim.CoreCounters(nil), c.Cores...)
	out.Clos = append([]sim.ClosCounters(nil), c.Clos...)
	return out
}

// ParkCore forwards thread-packing to the inner system when it supports
// it (the ext.BEManager policy type-asserts for this capability; wrapping
// in chaos must not hide it).
func (s *System) ParkCore(core int) error {
	if p, ok := s.inner.(interface{ ParkCore(int) error }); ok {
		return p.ParkCore(core)
	}
	return fmt.Errorf("chaos: inner system has no core parking")
}

// UnparkCore forwards to the inner system when supported.
func (s *System) UnparkCore(core int) error {
	if p, ok := s.inner.(interface{ UnparkCore(int) error }); ok {
		return p.UnparkCore(core)
	}
	return fmt.Errorf("chaos: inner system has no core parking")
}

// CoreParked forwards to the inner system when supported.
func (s *System) CoreParked(core int) bool {
	if p, ok := s.inner.(interface{ CoreParked(int) bool }); ok {
		return p.CoreParked(core)
	}
	return false
}

var _ resctrl.System = (*System)(nil)

// Schedules returns the named fault schedules the soak harness and CLI
// expose. Each isolates one fault class except "storm", which combines
// them all at moderated rates.
func Schedules() []Config {
	return []Config{
		{Name: "dropout", DropoutProb: 0.08},
		{Name: "freeze", FreezeProb: 0.06, FreezePeriods: 3},
		{Name: "jitter", JitterPct: 0.10},
		{Name: "write-reject", WriteFailProb: 0.25},
		{Name: "delayed-actuation", WriteDelayProb: 0.50, DelayPeriods: 2},
		{Name: "storm", DropoutProb: 0.03, FreezeProb: 0.03, FreezePeriods: 2,
			JitterPct: 0.05, WriteFailProb: 0.10, WriteDelayProb: 0.20, DelayPeriods: 1},
	}
}

// ScheduleByName looks up a named schedule from Schedules. The special
// name "none" returns an inactive schedule.
func ScheduleByName(name string) (Config, error) {
	if name == "none" {
		return Config{Name: "none"}, nil
	}
	for _, c := range Schedules() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("chaos: unknown schedule %q (have none, %s)", name, scheduleNames())
}

func scheduleNames() string {
	s := ""
	for i, c := range Schedules() {
		if i > 0 {
			s += ", "
		}
		s += c.Name
	}
	return s
}
