// Package sim is the discrete-time co-location simulator: a set of cores
// each running an application model (internal/app), a way-partitioned LLC
// divided among classes of service (CLOS), and a shared memory link with
// saturation (internal/membw).
//
// Each Step(dt) performs three coupled solves and then advances time:
//
//  1. Cache sharing. Ways are grouped into regions by which processes may
//     fill them (a process may fill a way if its CLOS's capacity bit-mask
//     covers it). Within a region, capacity is divided in proportion to
//     each sharer's insertion pressure (miss rate × access rate), the
//     steady state of random/LRU replacement under competing insertion
//     streams. Exclusive regions (the common case under DICER/CT) devolve
//     to "the owner gets everything". The pressure itself depends on the
//     resulting share, so the division is computed by damped fixed-point
//     iteration.
//
//  2. Bandwidth. Total memory traffic depends on per-process IPC, which
//     depends on memory latency, which depends on total traffic. The
//     equilibrium latency-inflation factor is found with membw.Link.Solve
//     (monotone bisection). Optional per-CLOS bandwidth caps (the MBA
//     extension, internal/ext) add a per-CLOS throttle factor solved the
//     same way.
//
//  3. Advance. Every process runs dt seconds at its operating point,
//     crossing phase boundaries and restarting on completion; cumulative
//     per-core and per-CLOS counters are updated.
//
// Both solves are deterministic functions of inputs that change only at
// period boundaries and phase transitions — CLOS masks, bandwidth caps,
// the parked set, and each process's current phase — not every Step. The
// Runner therefore caches the solved operating point: every actuator
// write that changes something invalidates it, and a per-process phase
// fingerprint is compared at each Step. When nothing changed, Step is just
// the Advance loop. Controllers also return to masks they tried a few
// periods earlier, so the Runner memoises the operating points solved
// since the last change other than a mask (opMemo); a revisited mask
// vector takes its shares and link point from there. Otherwise the solves
// rerun into scratch buffers owned by the Runner, so the hot path performs
// no allocation once warm. Processes that cannot differ in any input —
// same phase table, CLOS, parked state and progress, like the paper's
// nine BE copies — form a lockstep set: its first member is solved and
// advanced and the others copy it. The pre-optimisation solver is retained
// verbatim in reference.go and equivalence tests hold the two to
// identical trajectories.
//
// The simulator exposes exactly the observables Intel RDT exposes —
// per-core instructions/cycles, per-CLOS LLC occupancy (CMT) and memory
// bandwidth (MBM) — which internal/resctrl wraps in a resctrl-like API.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dicer/internal/app"
	"dicer/internal/cache"
	"dicer/internal/machine"
	"dicer/internal/membw"
)

// shareIters bounds the pressure fixed-point iteration. Shares converge
// geometrically under damping; 12 iterations put the residual well below
// the model's own fidelity. The solve stops earlier at an exact fixed
// point, where every later iteration would repeat the last one.
const shareIters = 12

// memoCap bounds the operating-point memo. DICER visits at most 19
// distinct mask vectors between two phase or population changes on the
// paper sweep and 8 on the fleet; a full memo starts over.
const memoCap = 32

// memoFirst is the number of entries the memo's first allocation holds.
const memoFirst = 4

// Runner simulates one server. It is not safe for concurrent use; run one
// Runner per goroutine (experiments do exactly that — Suite keeps a pool).
type Runner struct {
	m         machine.Machine
	masks     []uint64 // per-CLOS capacity bit-mask
	procs     []*slot
	caps      []float64 // per-CLOS bandwidth cap in GBps (0 = uncapped)
	coreIndex []int     // core -> index into procs, -1 when empty
	anyCaps   bool      // true iff any caps entry is non-zero

	time float64

	// Change detection. Every mutation that can move the solved
	// operating point (masks, caps, parked set, CLOS assignment,
	// attach/detach/reset) clears sharesValid; lastPhases records each
	// process's phase index at the last solve. The cached solve is valid
	// only while sharesValid holds and the phases match.
	sharesValid bool
	bwValid     bool
	lastPhases  []int

	// memo holds the operating points solved since the last structural
	// change or phase transition.
	memo opMemo

	// Solved operating point (valid per the flags above).
	shares    []float64 // per-proc cache capacity in bytes
	pressure  []float64
	opMiss    []float64 // per-proc miss ratio at (shares[i], current phase)
	curBF     float64   // co-location base-CPI factor at the last solve
	throttles []float64 // per-CLOS MBA throttle at the solved inflation

	// Scratch buffers reused across solves to keep the hot path
	// allocation-free. reach holds each process's reachable capacity in
	// the share solve and its demand within one bwDemand evaluation.
	reach      []float64
	capsBuf    []float64
	allocBuf   []float64
	activeBuf  []int // a shared region's runs, by first member
	runCnt     []int // members in the run that starts at each process
	wfLive     []int
	occClos    []int    // the CLOS that hold an unparked process
	occMembers []uint64 // each one's unparked processes, a bitmask over procs
	regionSig  []uint64 // way regions keyed by sharer signature
	regionCap  []float64
	regionCnt  []int
	thrVal     []float64 // per-CLOS throttle memo within one demand eval
	thrSet     []bool
	occBuf     []float64 // per-CLOS occupancy accumulator for SnapshotInto

	// demandFn is the bandwidth-demand closure handed to membw.Link.Solve,
	// bound once at construction so Step allocates nothing.
	demandFn membw.Demand

	// Cumulative per-CLOS memory traffic in bytes.
	closBytes []float64

	// Last solved operating point, for inspection.
	lastInflation float64
	lastUtil      float64

	// useReference routes Step through the retained pre-optimisation
	// solver (reference.go); equivalence tests flip it.
	useReference bool
}

// opMemo maps the mask vectors solved since the last change other than a
// mask to the operating points they solved to. While the population, the
// CLOS assignment, the parked set, the caps and every process's phase
// hold still, both solves are pure functions of the masks of the CLOS ids
// that hold a process, so those masks are the key and a revisited key
// needs neither solve; MBA throttles are recomputed from the memoised
// inflation exactly as after a solve. An operating point enters the memo
// when a mask write leaves it, so a run whose masks hold still stores
// nothing. Storage is flat and Runner-owned, so it keeps its capacity
// across drops and Reset: with k = len(clos) and n processes, entry e's
// key is keys[e*k:(e+1)*k] and vals[e*(n+2):(e+1)*(n+2)] holds every
// process's share, then the link utilisation and inflation.
type opMemo struct {
	clos []int     // key columns: the CLOS ids that hold a process
	keys []uint64  // per entry, the masks of clos in order
	vals []float64 // per entry, the shares, utilisation and inflation
	n    int       // entries in use
	hit  int       // entry the current operating point came from, or -1
}

// drop empties the memo, keeping its storage.
func (o *opMemo) drop() {
	o.clos, o.keys, o.vals = o.clos[:0], o.keys[:0], o.vals[:0]
	o.n = 0
	o.hit = -1
}

// slot binds a process to a core and CLOS.
type slot struct {
	core   int
	clos   int
	proc   *app.Proc
	parked bool  // parked cores neither run nor contend (thread packing)
	lead   int32 // index of its lockstep set's first member (in the padding)
}

// New creates a Runner for machine m with closCount classes of service.
// All masks start full (hardware reset state).
func New(m machine.Machine, closCount int) (*Runner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if closCount <= 0 {
		return nil, fmt.Errorf("sim: non-positive CLOS count %d", closCount)
	}
	r := &Runner{m: m}
	r.demandFn = r.bwDemand
	r.regionSig = make([]uint64, m.LLCWays)
	r.regionCap = make([]float64, m.LLCWays)
	r.regionCnt = make([]int, m.LLCWays)
	r.coreIndex = make([]int, m.Cores)
	// A Runner holds at most one process per core, so the per-process
	// scratch gets that capacity here and Attach never regrows it.
	r.procs = make([]*slot, 0, m.Cores)
	for _, s := range []*[]float64{&r.shares, &r.pressure, &r.opMiss, &r.reach, &r.capsBuf, &r.allocBuf} {
		*s = make([]float64, 0, m.Cores)
	}
	for _, s := range []*[]int{&r.lastPhases, &r.activeBuf, &r.runCnt, &r.wfLive, &r.occClos} {
		*s = make([]int, 0, m.Cores)
	}
	r.occMembers = make([]uint64, 0, m.Cores)
	r.resetState(closCount)
	return r, nil
}

// Reset returns the Runner to its freshly constructed state with closCount
// classes of service, keeping its scratch buffers. A Reset Runner behaves
// exactly like one from New on the same machine; experiment drivers pool
// Runners through it to keep the sweep allocation-light.
func (r *Runner) Reset(closCount int) error {
	if closCount <= 0 {
		return fmt.Errorf("sim: non-positive CLOS count %d", closCount)
	}
	r.resetState(closCount)
	return nil
}

// resetState (re)initialises all mutable state for closCount CLOS.
func (r *Runner) resetState(closCount int) {
	r.masks = grow(r.masks, closCount)
	r.caps = grow(r.caps, closCount)
	r.closBytes = grow(r.closBytes, closCount)
	r.throttles = grow(r.throttles, closCount)
	r.thrVal = grow(r.thrVal, closCount)
	r.thrSet = grow(r.thrSet, closCount)
	for i := 0; i < closCount; i++ {
		r.masks[i] = r.m.FullMask()
		r.caps[i] = 0
		r.closBytes[i] = 0
	}
	for i := range r.coreIndex {
		r.coreIndex[i] = -1
	}
	r.procs = r.procs[:0]
	r.anyCaps = false
	r.time = 0
	r.lastInflation = 0
	r.lastUtil = 0
	r.invalidate()
}

// invalidateMasks discards the cached operating point after a mask
// write. The memo stays: it is keyed by the masks.
func (r *Runner) invalidateMasks() {
	r.sharesValid = false
	r.bwValid = false
}

// invalidate discards the cached operating point and the memo after a
// change to the population, the CLOS assignment, the parked set or the
// caps, and derives the lockstep sets again: only such a change can
// split one.
func (r *Runner) invalidate() {
	r.invalidateMasks()
	r.memo.drop()
	r.groupLockstep()
}

// groupLockstep points each process at the first earlier process of its
// CLOS and parked state that it is in lockstep with (app.Proc.InLockstep),
// or at itself. Members of a set reach every way region together, so
// they get equal shares, and they see the same throttle, co-location
// factor and inflation: every result a member computes equals its
// lead's. Mask and cap writes act on whole CLOS and cannot split a set,
// and a member only ever copies its lead, so the set holds until the
// next structural write.
func (r *Runner) groupLockstep() {
	for i, s := range r.procs {
		s.lead = int32(i)
		for j, l := range r.procs[:i] {
			if int(l.lead) == j && l.clos == s.clos && l.parked == s.parked && l.proc.InLockstep(s.proc) {
				s.lead = int32(j)
				break
			}
		}
	}
}

// Machine returns the simulated platform.
func (r *Runner) Machine() machine.Machine { return r.m }

// Attach starts an instance of prof on the given core under the given
// CLOS. Each core holds at most one process.
func (r *Runner) Attach(core, clos int, prof app.Profile) error {
	if core < 0 || core >= r.m.Cores {
		return fmt.Errorf("sim: core %d out of range [0,%d)", core, r.m.Cores)
	}
	if clos < 0 || clos >= len(r.masks) {
		return fmt.Errorf("sim: clos %d out of range [0,%d)", clos, len(r.masks))
	}
	if r.coreIndex[core] >= 0 {
		return fmt.Errorf("sim: core %d already occupied", core)
	}
	if err := prof.Validate(); err != nil {
		return err
	}
	r.coreIndex[core] = len(r.procs)
	r.procs = append(r.procs, &slot{core: core, clos: clos, proc: app.NewProc(prof)})
	n := len(r.procs)
	r.shares = grow(r.shares, n)
	r.pressure = grow(r.pressure, n)
	r.opMiss = grow(r.opMiss, n)
	r.reach = grow(r.reach, n)
	r.capsBuf = grow(r.capsBuf, n)
	r.allocBuf = grow(r.allocBuf, n)
	r.lastPhases = grow(r.lastPhases, n)
	r.activeBuf = grow(r.activeBuf, n)[:0]
	r.runCnt = grow(r.runCnt, n)
	r.wfLive = grow(r.wfLive, n)[:0]
	r.invalidate()
	return nil
}

// Detach removes the process running on core, freeing the core for a
// later Attach. The process's cumulative counters are discarded with it
// (read them via Proc before detaching); per-CLOS traffic counters keep
// the bytes it moved. Detaching is the "job completed / job migrated"
// actuator of the fleet layer: a node's BE population changes at
// monitoring-period boundaries as placements and completions land.
func (r *Runner) Detach(core int) error {
	if core < 0 || core >= len(r.coreIndex) || r.coreIndex[core] < 0 {
		return fmt.Errorf("sim: no process on core %d", core)
	}
	idx := r.coreIndex[core]
	r.procs = append(r.procs[:idx], r.procs[idx+1:]...)
	for c := range r.coreIndex {
		r.coreIndex[c] = -1
	}
	for j, s := range r.procs {
		r.coreIndex[s.core] = j
	}
	r.invalidate()
	return nil
}

// SetClos moves the process on core to a different class of service —
// the emulated equivalent of writing a PID into another resctrl group's
// tasks file. Unlike Detach+Attach, the process keeps its phase position
// and cumulative counters; only its cache/bandwidth class changes. The
// multi-HP controller uses this to re-cluster HP apps between CLOS
// groups without perturbing their measured progress.
func (r *Runner) SetClos(core, clos int) error {
	if core < 0 || core >= len(r.coreIndex) || r.coreIndex[core] < 0 {
		return fmt.Errorf("sim: no process on core %d", core)
	}
	if clos < 0 || clos >= len(r.masks) {
		return fmt.Errorf("sim: clos %d out of range [0,%d)", clos, len(r.masks))
	}
	s := r.procs[r.coreIndex[core]]
	if s.clos == clos {
		return nil
	}
	s.clos = clos
	r.invalidate()
	return nil
}

// SetMask installs a capacity bit-mask for clos (CAT semantics: non-zero,
// contiguous, within the implemented ways).
func (r *Runner) SetMask(clos int, mask uint64) error {
	if clos < 0 || clos >= len(r.masks) {
		return fmt.Errorf("sim: clos %d out of range [0,%d)", clos, len(r.masks))
	}
	if err := cache.CheckMask(mask, r.m.LLCWays); err != nil {
		return err
	}
	if r.masks[clos] == mask {
		return nil
	}
	r.memoStore()
	r.masks[clos] = mask
	r.invalidateMasks()
	return nil
}

// Mask returns the current capacity bit-mask of clos.
func (r *Runner) Mask(clos int) uint64 { return r.masks[clos] }

// NumClos returns the number of classes of service.
func (r *Runner) NumClos() int { return len(r.masks) }

// SetBWCap sets a per-CLOS memory-bandwidth cap in Gbps (the MBA
// extension); 0 removes the cap.
func (r *Runner) SetBWCap(clos int, gbps float64) error {
	if clos < 0 || clos >= len(r.caps) {
		return fmt.Errorf("sim: clos %d out of range [0,%d)", clos, len(r.caps))
	}
	if gbps < 0 {
		return fmt.Errorf("sim: negative bandwidth cap %g", gbps)
	}
	if r.caps[clos] == gbps {
		return nil
	}
	r.caps[clos] = gbps
	r.anyCaps = false
	for _, c := range r.caps {
		if c > 0 {
			r.anyCaps = true
			break
		}
	}
	r.invalidate()
	return nil
}

// SetCoreParked parks or unparks a core. A parked core's process is
// suspended: it retires no instructions, exerts no cache pressure and
// consumes no bandwidth until unparked. This models the thread-packing
// actuator that the paper's §6 BE-count extension needs.
func (r *Runner) SetCoreParked(core int, parked bool) error {
	if core >= 0 && core < len(r.coreIndex) {
		if idx := r.coreIndex[core]; idx >= 0 {
			if r.procs[idx].parked != parked {
				r.procs[idx].parked = parked
				r.invalidate()
			}
			return nil
		}
	}
	return fmt.Errorf("sim: no process on core %d", core)
}

// CoreParked reports whether the core is parked.
func (r *Runner) CoreParked(core int) bool {
	if core >= 0 && core < len(r.coreIndex) {
		if idx := r.coreIndex[core]; idx >= 0 {
			return r.procs[idx].parked
		}
	}
	return false
}

// Proc returns the process attached to core, or nil. Callers read it and
// never write it: a process in lockstep is advanced by copying another.
func (r *Runner) Proc(core int) *app.Proc {
	if core >= 0 && core < len(r.coreIndex) {
		if idx := r.coreIndex[core]; idx >= 0 {
			return r.procs[idx].proc
		}
	}
	return nil
}

// AloneIPC runs prof by itself on r — reset to a single CLOS and
// confined to the low `ways` ways of the LLC (all of it when ways covers
// the LLC) — for steps steps of dt seconds, and returns its cumulative
// IPC: the alone-run reference the paper normalises co-located IPCs to.
func (r *Runner) AloneIPC(prof app.Profile, ways, steps int, dt float64) (float64, error) {
	if err := r.Reset(1); err != nil {
		return 0, err
	}
	if err := r.Attach(0, 0, prof); err != nil {
		return 0, err
	}
	if ways < r.m.LLCWays {
		if err := r.SetMask(0, cache.ContiguousMask(0, ways)); err != nil {
			return 0, err
		}
	}
	for i := 0; i < steps; i++ {
		r.Step(dt)
	}
	return r.Proc(0).IPC(), nil
}

// UseReferenceSolver routes all subsequent Steps (and share solves)
// through the retained pre-optimisation solver in reference.go instead of
// the cached allocation-free one. Solver-equivalence tests run the same
// scenario both ways and require identical trajectories; production code
// never sets this.
func (r *Runner) UseReferenceSolver(on bool) {
	r.useReference = on
	r.invalidate()
}

// solveShares brings r.shares up to date with the current masks, parked
// set and phases. Kept as the single entry point so tests and Snapshot
// share the cache (or the reference path when selected).
func (r *Runner) solveShares() {
	if r.useReference {
		r.referenceSolveShares()
		return
	}
	r.ensureShares()
}

// phasesUnchanged reports whether every process is still in the phase it
// was in at the last solve.
func (r *Runner) phasesUnchanged() bool {
	for i, s := range r.procs {
		if r.lastPhases[i] != s.proc.PhaseIndex() {
			return false
		}
	}
	return true
}

// ensureShares brings the cache sharing up to date iff an actuator write
// or a phase transition invalidated the cached result: from the memo when
// the masks were solved since the last structural change and phase
// transition, by a full solve otherwise.
func (r *Runner) ensureShares() {
	if len(r.procs) == 0 {
		return
	}
	phasesSame := r.phasesUnchanged()
	if r.sharesValid && phasesSame {
		return
	}
	if !phasesSame {
		r.memo.drop()
	}
	n := len(r.procs)
	if e := r.memoLookup(); e >= 0 {
		copy(r.shares[:n], r.memo.vals[e*(n+2):])
		r.memo.hit = e
	} else {
		r.solveSharesFull()
		r.memo.hit = -1
	}
	for i, s := range r.procs {
		r.lastPhases[i] = s.proc.PhaseIndex()
		if l := int(s.lead); l != i {
			r.opMiss[i] = r.opMiss[l]
			continue
		}
		if s.parked {
			r.opMiss[i] = 0
			continue
		}
		r.opMiss[i] = s.proc.Phase().Curve.MissRatio(r.shares[i])
	}
	r.sharesValid = true
	r.bwValid = false
}

// ensureOperatingPoint extends ensureShares with the bandwidth fixed
// point: equilibrium latency inflation and per-CLOS MBA throttles. The
// link point is published here, never on the snapshot path, so Inflation
// and Utilisation stay those of the last Step.
func (r *Runner) ensureOperatingPoint() {
	r.ensureShares()
	if r.bwValid {
		return
	}
	if e := r.memo.hit; e >= 0 {
		v := r.memo.vals[(e+1)*(len(r.procs)+2)-2:]
		r.lastUtil, r.lastInflation = v[0], v[1]
	} else {
		r.lastUtil, r.lastInflation = r.m.Link.Solve(r.demandFn)
	}
	for c := range r.throttles {
		r.throttles[c] = 1
	}
	if r.anyCaps {
		for c := range r.throttles {
			r.throttles[c] = r.throttleAt(c, r.lastInflation)
		}
	}
	r.bwValid = true
}

// memoLookup returns the memo entry solved at the current masks, or -1.
func (r *Runner) memoLookup() int {
	o := &r.memo
	k := len(o.clos)
entries:
	for e := 0; e < o.n; e++ {
		for j, c := range o.clos {
			if o.keys[e*k+j] != r.masks[c] {
				continue entries
			}
		}
		return e
	}
	return -1
}

// memoStore keeps the operating point a mask write is about to leave,
// unless it is not fully solved or already came from the memo. The key
// columns are fixed when the first entry lands: the CLOS assignment
// cannot change without dropping the memo.
func (r *Runner) memoStore() {
	o := &r.memo
	if !r.bwValid || o.hit >= 0 {
		return
	}
	if o.n == memoCap {
		o.drop()
	}
	if o.n == 0 {
		for _, s := range r.procs {
			if !slices.Contains(o.clos, s.clos) {
				o.clos = append(o.clos, s.clos)
			}
		}
	}
	if cap(o.vals) == 0 {
		// Size the first allocation for memoFirst entries: most stretches
		// hold a few, and growing from one entry would take three
		// allocations to reach four.
		o.keys = make([]uint64, 0, memoFirst*len(o.clos))
		o.vals = make([]float64, 0, memoFirst*(len(r.procs)+2))
	}
	for _, c := range o.clos {
		o.keys = append(o.keys, r.masks[c])
	}
	o.vals = append(o.vals, r.shares[:len(r.procs)]...)
	o.vals = append(o.vals, r.lastUtil, r.lastInflation)
	o.n++
}

// solveSharesFull computes the cache capacity available to each process
// given the current masks, via pressure-proportional division of way
// regions. Results land in r.shares (bytes per process, indexed like
// r.procs). All working storage is scratch owned by the Runner; region
// iteration follows way order, so the result is deterministic.
//
// It computes what the reference solver does, bit for bit, and skips
// three kinds of work that cannot change a result: regions come from
// each occupied CLOS's members instead of from every process; a shared
// region water-fills runs of lockstep members instead of members (see
// waterfill); and the pressure iteration stops at its first exact fixed
// point. An iteration computes the shares from the pressure alone, since
// the regions and caps are fixed within a solve, so once an iteration
// leaves every lead's pressure bit for bit as it found it, every later
// one repeats it and its shares are the last iteration's.
func (r *Runner) solveSharesFull() {
	n := len(r.procs)
	if n == 0 {
		return
	}
	wayBytes := r.m.WayBytes()

	// Group ways into regions keyed by sharer signature. With <=64 procs a
	// bitmask over procs identifies a region: the OR of the unparked
	// members of every CLOS whose mask covers the way.
	occClos, occMembers := r.occClos[:0], r.occMembers[:0]
	for i, s := range r.procs {
		if s.parked {
			continue
		}
		k := slices.Index(occClos, s.clos)
		if k < 0 {
			k = len(occClos)
			occClos = append(occClos, s.clos)
			occMembers = append(occMembers, 0)
		}
		occMembers[k] |= 1 << uint(i)
	}
	nr := 0
	for w := 0; w < r.m.LLCWays; w++ {
		var sig uint64
		for k, c := range occClos {
			if r.masks[c]&(1<<uint(w)) != 0 {
				sig |= occMembers[k]
			}
		}
		if sig == 0 {
			continue // way no process can fill: idle capacity
		}
		idx := -1
		for j := 0; j < nr; j++ {
			if r.regionSig[j] == sig {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = nr
			nr++
			r.regionSig[idx] = sig
			r.regionCap[idx] = 0
			r.regionCnt[idx] = bits.OnesCount64(sig)
		}
		r.regionCap[idx] += wayBytes
	}

	// Initial pressure: evaluate each process at an equal split of its
	// reachable capacity.
	for i := 0; i < n; i++ {
		r.reach[i] = 0
	}
	for j := 0; j < nr; j++ {
		sig, cnt := r.regionSig[j], r.regionCnt[j]
		for m := sig; m != 0; m &= m - 1 {
			r.reach[bits.TrailingZeros64(m)] += r.regionCap[j] / float64(cnt)
		}
	}
	bf := r.coLocFactor()
	r.curBF = bf
	for i, s := range r.procs {
		if l := int(s.lead); l != i {
			r.pressure[i], r.capsBuf[i] = r.pressure[l], r.capsBuf[l]
			continue
		}
		if s.parked {
			r.pressure[i] = 0
			r.capsBuf[i] = 0
			continue
		}
		r.pressure[i] = touchPressure(&r.m, s.proc, r.reach[i], bf)
		// The most capacity a process can ever make use of: its resident
		// demand when offered everything it can reach. Streaming traffic
		// churns, so OccupancyDemand returns the full offer for apps with
		// a streaming fraction; bounded apps cap at their footprint.
		r.capsBuf[i] = s.proc.Phase().Curve.OccupancyDemand(float64(r.m.LLCBytes))
	}

	// Damped fixed point: water-fill each region by touch rate (hits keep
	// LRU lines fresh, so retention competition follows total access
	// intensity, not miss intensity), capped by footprint; re-evaluate
	// touch rates at the resulting shares. Shares accumulate at each run's
	// first member, a set's lead unless the set is split, and every
	// follower takes its lead's share at the end. Followers copy their
	// lead's pressure as it changes: a run may start at one.
	active, cnt := r.activeBuf[:0], r.runCnt
	for iter := 0; iter < shareIters; iter++ {
		for i := range r.shares {
			r.shares[i] = 0
		}
		for j := 0; j < nr; j++ {
			sig := r.regionSig[j]
			if r.regionCnt[j] == 1 {
				// Exclusive region: owner takes all. (Index of the single
				// set bit.)
				r.shares[bits.TrailingZeros64(sig)] += r.regionCap[j]
				continue
			}
			active = runs(sig, r.procs, active, cnt)
			for _, i := range active {
				r.allocBuf[i] = 0
			}
			r.wfLive = waterfill(r.regionCap[j], r.pressure, r.capsBuf, active, cnt, r.allocBuf, r.wfLive)
			for _, i := range active {
				r.shares[i] += r.allocBuf[i]
			}
		}
		settled := true
		for i, s := range r.procs {
			if s.parked {
				continue
			}
			if l := int(s.lead); l != i {
				r.pressure[i] = r.pressure[l]
				continue
			}
			p := 0.5*r.pressure[i] + 0.5*touchPressure(&r.m, s.proc, r.shares[i], bf)
			if math.Float64bits(p) != math.Float64bits(r.pressure[i]) {
				settled = false
			}
			r.pressure[i] = p
		}
		if settled {
			break
		}
	}
	r.activeBuf = active[:0]
	for i, s := range r.procs {
		if l := int(s.lead); l != i {
			r.shares[i] = r.shares[l]
		}
	}
}

// runs lists the runs of the region whose sharer signature is sig in
// active, each as its first member, and sets cnt there to the run's
// member count. A run is a maximal stretch of consecutive members of one
// lockstep set. A set split by a member of another (SetClos out of its
// middle) makes two runs of one lead, so a run's slot is its first
// member, never its lead.
func runs(sig uint64, procs []*slot, active, cnt []int) []int {
	active = active[:0]
	prev := int32(-1)
	for m := sig; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		l := procs[i].lead
		if l == prev {
			cnt[active[len(active)-1]]++
			continue
		}
		prev = l
		active = append(active, i)
		cnt[i] = 1
	}
	return active
}

// waterfill divides capacity among the active runs in proportion to their
// weights, capping each allocation at caps[i] and redistributing the
// excess to the remaining runs. A run stands for cnt[i] consecutive
// members with weight weights[i] and cap caps[i] each, and active holds
// each run's first member; members of a run are allocated alike, so one
// result per run is written into alloc at its first member. Sums add a
// run's term once per member in turn and the even split counts members,
// so every allocation equals a water-fill over the members bit for bit.
// live is scratch storage (contents ignored); the possibly regrown buffer
// is returned for reuse. active itself is never modified.
func waterfill(capacity float64, weights, caps []float64, active, cnt []int, alloc []float64, live []int) []int {
	remaining := capacity
	live = append(live[:0], active...)
	scratch := live
	for len(live) > 0 && remaining > 1e-9 {
		var totW float64
		members := 0
		for _, i := range live {
			for k := 0; k < cnt[i]; k++ {
				totW += weights[i]
			}
			members += cnt[i]
		}
		// With no weight information left (all-zero weights), fall back to
		// an even split — still honouring caps via the same loop.
		w := func(i int) float64 {
			if totW <= 0 {
				return 1
			}
			return weights[i]
		}
		tw := totW
		if tw <= 0 {
			tw = float64(members)
		}
		capped := live[:0]
		progressed := false
		budget := remaining
		for _, i := range live {
			t := budget * w(i) / tw
			headroom := caps[i] - alloc[i]
			if headroom <= t {
				alloc[i] += headroom
				for k := 0; k < cnt[i]; k++ {
					remaining -= headroom
				}
				progressed = true
			} else {
				capped = append(capped, i)
			}
		}
		live = capped
		if !progressed {
			// Nobody hit a cap: distribute proportionally and finish.
			for _, i := range live {
				alloc[i] += remaining * w(i) / tw
			}
			return scratch
		}
	}
	return scratch
}

// touchPressure is the rate at which a process touches LLC lines at the
// given capacity: accesses per second (hits refresh LRU recency just as
// misses insert lines, so retention competition follows total access
// intensity), evaluated at unit latency inflation — the share solve is
// about cache geometry, not transient bandwidth state.
func touchPressure(m *machine.Machine, pr *app.Proc, capacity, baseFactor float64) float64 {
	ph := pr.PhaseRef()
	perf := app.PhasePerfMissRef(m, ph, ph.Curve.MissRatio(capacity), 1, baseFactor)
	return perf.IPC * m.CyclesPerSecond() * ph.APKI / 1000
}

// procGbps is one process's bandwidth demand in Gbps at the given
// inflation factor, using the memoised miss ratio for its current share
// and phase. Arithmetic matches the original per-step Perf evaluation
// term for term.
func (r *Runner) procGbps(i int, inflation float64) float64 {
	s := r.procs[i]
	perf := app.PhasePerfMissRef(&r.m, s.proc.PhaseRef(), r.opMiss[i], inflation, r.curBF)
	return membw.BytesToGbps(perf.BytesPerSec, 1)
}

// closDemand is the bandwidth demand of one CLOS's processes at combined
// inflation f*t (the MBA throttle bisection's objective).
func (r *Runner) closDemand(clos int, f, t float64) float64 {
	var sum float64
	for i, s := range r.procs {
		if s.clos == clos && !s.parked {
			sum += r.procGbps(i, f*t)
		}
	}
	return sum
}

// throttleAt solves the per-CLOS MBA throttle factor at inflation f
// (1 = no throttle). A cap behaves like extra latency for that CLOS's
// processes only: throttle t such that the CLOS demand at combined
// inflation f*t meets the cap.
func (r *Runner) throttleAt(clos int, f float64) float64 {
	cap := r.caps[clos]
	if cap <= 0 {
		return 1
	}
	if r.closDemand(clos, f, 1) <= cap {
		return 1
	}
	lo, hi := 1.0, 64.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if r.closDemand(clos, f, mid) > cap {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// bwDemand is the total offered load in Gbps at latency-inflation factor
// f — the demand curve handed to membw.Link.Solve. With no MBA caps set
// (the common case) the throttle path short-circuits entirely; otherwise
// each CLOS's throttle is solved once per evaluation and shared by its
// processes. A lead's demand is kept in reach, and each of its followers
// adds that value again.
func (r *Runner) bwDemand(f float64) float64 {
	if r.anyCaps {
		for c := range r.thrSet {
			r.thrSet[c] = false
		}
	}
	var total float64
	for i, s := range r.procs {
		if s.parked {
			continue
		}
		if l := int(s.lead); l != i {
			total += r.reach[l]
			continue
		}
		inflation := f
		if r.anyCaps {
			if !r.thrSet[s.clos] {
				r.thrVal[s.clos] = r.throttleAt(s.clos, f)
				r.thrSet[s.clos] = true
			}
			inflation *= r.thrVal[s.clos]
		}
		r.reach[i] = r.procGbps(i, inflation)
		total += r.reach[i]
	}
	return total
}

// Step advances the simulation by dt seconds.
func (r *Runner) Step(dt float64) {
	if dt <= 0 {
		panic(fmt.Sprintf("sim: non-positive step %g", dt))
	}
	if r.useReference {
		r.stepReference(dt)
		return
	}
	if len(r.procs) == 0 {
		r.time += dt
		return
	}

	r.ensureOperatingPoint()
	inflation := r.lastInflation

	// Advance processes at the solved operating point; a lockstep
	// follower copies the advance its lead has just made.
	for i, s := range r.procs {
		if s.parked {
			// A parked core makes no progress but wall-clock time still
			// passes: charge empty cycles so cumulative IPC reflects the
			// lost throughput (this is what the EFU metric must see).
			s.proc.Cycles += dt * r.m.CyclesPerSecond()
			continue
		}
		before := s.proc.MemBytes
		if l := int(s.lead); l != i {
			s.proc.CopyProgress(r.procs[l].proc)
		} else {
			t := r.throttles[s.clos]
			s.proc.AdvanceMissRef(&r.m, r.shares[i], r.opMiss[i], inflation*t, r.curBF, dt)
		}
		r.closBytes[s.clos] += s.proc.MemBytes - before
	}
	r.time += dt
}

// coLocFactor returns the base-CPI co-location factor for the current
// process population.
func (r *Runner) coLocFactor() float64 {
	active := 0
	for _, s := range r.procs {
		if !s.parked {
			active++
		}
	}
	return r.m.CoLocFactor(active - 1)
}

// CoreCounters are the cumulative per-core performance counters.
type CoreCounters struct {
	Core         int
	Clos         int
	Name         string  // profile name, for reporting
	Instructions float64 // retired instructions
	Cycles       float64 // elapsed core cycles
	Completions  int     // whole-profile completions (restarts)
}

// ClosCounters are the per-CLOS RDT-style monitoring counters.
type ClosCounters struct {
	Clos           int
	MemBytes       float64 // cumulative memory traffic (MBM-style)
	OccupancyBytes float64 // instantaneous LLC occupancy (CMT-style)
	Mask           uint64  // current capacity bit-mask
}

// Snapshot is a consistent view of all counters at the current time.
type Snapshot struct {
	Time  float64
	Cores []CoreCounters
	Clos  []ClosCounters
}

// Snapshot captures all counters. Occupancy is the model's steady-state
// estimate for the current allocation: the sum over the CLOS's processes
// of the bytes they keep resident in their current share.
func (r *Runner) Snapshot() Snapshot {
	var snap Snapshot
	r.SnapshotInto(&snap)
	return snap
}

// SnapshotInto fills snap with the current counters, reusing snap's Cores
// and Clos slices when their capacity suffices. Per-period monitoring
// (resctrl.Meter via Emu) calls this with a reused snapshot so sampling
// performs no allocation in steady state. The occupancy estimate is
// identical to Snapshot's: each unparked process keeps
// min(OccupancyDemand(share), share) bytes resident — the performance
// model's other outputs do not enter the snapshot, so no Perf evaluation
// is needed.
func (r *Runner) SnapshotInto(snap *Snapshot) {
	if len(r.procs) > 0 {
		r.solveShares()
	}
	r.fillSnapshot(snap, true)
}

// CountersInto fills snap like SnapshotInto but leaves every
// OccupancyBytes zero, so it runs no share solve. It serves readers of
// the cumulative counters alone, such as a meter's baseline.
func (r *Runner) CountersInto(snap *Snapshot) {
	r.fillSnapshot(snap, false)
}

// fillSnapshot fills snap from the current counters, with the occupancy
// estimate when occupancy is set (the shares must then be current).
func (r *Runner) fillSnapshot(snap *Snapshot, occupancy bool) {
	snap.Time = r.time
	occ := grow(r.occBuf, len(r.masks))
	r.occBuf = occ
	for c := range occ {
		occ[c] = 0
	}
	snap.Cores = snap.Cores[:0]
	snap.Clos = snap.Clos[:0]
	// OccupancyDemand is a pure function of the phase and the share, so a
	// process in the same phase at the same share as the previous one
	// (the members of a lockstep set) reuses its value.
	var ph *app.Phase
	var share, o float64
	for i, s := range r.procs {
		if occupancy && !s.parked {
			if p, sh := s.proc.PhaseRef(), r.shares[i]; p != ph || math.Float64bits(sh) != math.Float64bits(share) {
				ph, share = p, sh
				o = p.Curve.OccupancyDemand(sh)
				if o > sh {
					o = sh
				}
			}
			occ[s.clos] += o
		}
		snap.Cores = append(snap.Cores, CoreCounters{
			Core:         s.core,
			Clos:         s.clos,
			Name:         s.proc.Profile.Name,
			Instructions: s.proc.Instructions,
			Cycles:       s.proc.Cycles,
			Completions:  s.proc.Completions,
		})
	}
	for c := range r.masks {
		snap.Clos = append(snap.Clos, ClosCounters{
			Clos:           c,
			MemBytes:       r.closBytes[c],
			OccupancyBytes: occ[c],
			Mask:           r.masks[c],
		})
	}
}

// grow reslices s to n when its capacity suffices and allocates n
// otherwise. Callers fully overwrite the live prefix before reading it.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
