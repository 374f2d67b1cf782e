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
// Runner therefore caches the solved operating point behind a
// change-detection epoch: SetMask/SetBWCap/SetCoreParked/Attach bump the
// epoch, and a per-process phase fingerprint is compared at each Step.
// When nothing changed, Step is just the Advance loop; when something did,
// the solves rerun into scratch buffers owned by the Runner, so the hot
// path performs no allocation in either case. The pre-optimisation solver
// is retained verbatim in reference.go and equivalence tests hold the two
// to identical trajectories.
//
// The simulator exposes exactly the observables Intel RDT exposes —
// per-core instructions/cycles, per-CLOS LLC occupancy (CMT) and memory
// bandwidth (MBM) — which internal/resctrl wraps in a resctrl-like API.
package sim

import (
	"fmt"
	"math/bits"

	"dicer/internal/app"
	"dicer/internal/cache"
	"dicer/internal/machine"
	"dicer/internal/membw"
)

// shareIters bounds the pressure fixed-point iteration. Shares converge
// geometrically under damping; 12 iterations put the residual well below
// the model's own fidelity.
const shareIters = 12

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

	// Change detection. epoch is bumped by every mutation that can move
	// the solved operating point (masks, caps, parked set, attach/reset);
	// lastPhases records each process's phase index at the last solve.
	// The cached solve is valid only while both match.
	epoch       uint64
	solvedEpoch uint64
	sharesValid bool
	bwValid     bool
	lastPhases  []int

	// Solved operating point (valid per the flags above).
	shares    []float64 // per-proc cache capacity in bytes
	pressure  []float64
	opMiss    []float64 // per-proc miss ratio at (shares[i], current phase)
	curBF     float64   // co-location base-CPI factor at the last solve
	throttles []float64 // per-CLOS MBA throttle at the solved inflation

	// Scratch buffers reused across solves to keep the hot path
	// allocation-free.
	reach     []float64
	capsBuf   []float64
	allocBuf  []float64
	activeBuf []int
	wfLive    []int
	regionSig []uint64 // way regions keyed by sharer signature
	regionCap []float64
	regionCnt []int
	thrVal    []float64 // per-CLOS throttle memo within one demand eval
	thrSet    []bool
	occBuf    []float64 // per-CLOS occupancy accumulator for SnapshotInto

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

// slot binds a process to a core and CLOS.
type slot struct {
	core   int
	clos   int
	proc   *app.Proc
	parked bool // parked cores neither run nor contend (thread packing)
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
	r.masks = growU64(r.masks, closCount)
	r.caps = growF64(r.caps, closCount)
	r.closBytes = growF64(r.closBytes, closCount)
	r.throttles = growF64(r.throttles, closCount)
	r.thrVal = growF64(r.thrVal, closCount)
	r.thrSet = growBool(r.thrSet, closCount)
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

// invalidate discards the cached operating point.
func (r *Runner) invalidate() {
	r.epoch++
	r.sharesValid = false
	r.bwValid = false
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
	r.shares = growF64(r.shares, n)
	r.pressure = growF64(r.pressure, n)
	r.opMiss = growF64(r.opMiss, n)
	r.reach = growF64(r.reach, n)
	r.capsBuf = growF64(r.capsBuf, n)
	r.allocBuf = growF64(r.allocBuf, n)
	r.lastPhases = growInt(r.lastPhases, n)
	r.activeBuf = growInt(r.activeBuf, n)[:0]
	r.wfLive = growInt(r.wfLive, n)[:0]
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
	r.procs[r.coreIndex[core]].clos = clos
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
	r.masks[clos] = mask
	r.invalidate()
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
			r.procs[idx].parked = parked
			r.invalidate()
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

// Time returns the simulated time in seconds.
func (r *Runner) Time() float64 { return r.time }

// Proc returns the process attached to core, or nil.
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

// ensureShares re-solves the cache sharing iff a mask/cap/parked mutation
// (epoch) or a phase transition invalidated the cached result.
func (r *Runner) ensureShares() {
	if len(r.procs) == 0 {
		return
	}
	if r.sharesValid && r.solvedEpoch == r.epoch && r.phasesUnchanged() {
		return
	}
	r.solveSharesFull()
	for i, s := range r.procs {
		r.lastPhases[i] = s.proc.PhaseIndex()
		if s.parked {
			r.opMiss[i] = 0
			continue
		}
		r.opMiss[i] = s.proc.Phase().Curve.MissRatio(r.shares[i])
	}
	r.sharesValid = true
	r.solvedEpoch = r.epoch
	r.bwValid = false
}

// ensureOperatingPoint extends ensureShares with the bandwidth fixed
// point: equilibrium latency inflation and per-CLOS MBA throttles.
func (r *Runner) ensureOperatingPoint() {
	r.ensureShares()
	if r.bwValid {
		return
	}
	util, inflation := r.m.Link.Solve(r.demandFn)
	r.lastUtil = util
	r.lastInflation = inflation
	for c := range r.throttles {
		r.throttles[c] = 1
	}
	if r.anyCaps {
		for c := range r.throttles {
			r.throttles[c] = r.throttleAt(c, inflation)
		}
	}
	r.bwValid = true
}

// solveSharesFull computes the cache capacity available to each process
// given the current masks, via pressure-proportional division of way
// regions. Results land in r.shares (bytes per process, indexed like
// r.procs). All working storage is scratch owned by the Runner; region
// iteration follows way order, so the result is deterministic.
func (r *Runner) solveSharesFull() {
	n := len(r.procs)
	if n == 0 {
		return
	}
	wayBytes := r.m.WayBytes()

	// Group ways into regions keyed by sharer signature. With <=64 procs a
	// bitmask over procs identifies a region.
	nr := 0
	for w := 0; w < r.m.LLCWays; w++ {
		var sig uint64
		for i, s := range r.procs {
			if !s.parked && r.masks[s.clos]&(1<<uint(w)) != 0 {
				sig |= 1 << uint(i)
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
		for i := 0; i < n; i++ {
			if sig&(1<<uint(i)) != 0 {
				r.reach[i] += r.regionCap[j] / float64(cnt)
			}
		}
	}
	bf := r.coLocFactor()
	r.curBF = bf
	for i, s := range r.procs {
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
	// touch rates at the resulting shares.
	active := r.activeBuf[:0]
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
			active = active[:0]
			for i := 0; i < n; i++ {
				if sig&(1<<uint(i)) != 0 {
					active = append(active, i)
					r.allocBuf[i] = 0
				}
			}
			r.wfLive = waterfill(r.regionCap[j], r.pressure, r.capsBuf, active, r.allocBuf, r.wfLive)
			for _, i := range active {
				r.shares[i] += r.allocBuf[i]
			}
		}
		for i, s := range r.procs {
			if s.parked {
				continue
			}
			p := touchPressure(&r.m, s.proc, r.shares[i], bf)
			r.pressure[i] = 0.5*r.pressure[i] + 0.5*p
		}
	}
	r.activeBuf = active[:0]
}

// waterfill divides capacity among the active processes in proportion to
// their weights, capping each allocation at caps[i] and redistributing the
// excess to the remaining processes. Results are written into alloc at the
// active indices. live is scratch storage (contents ignored); the possibly
// regrown buffer is returned for reuse. active itself is never modified.
func waterfill(capacity float64, weights, caps []float64, active []int, alloc []float64, live []int) []int {
	remaining := capacity
	live = append(live[:0], active...)
	scratch := live
	for len(live) > 0 && remaining > 1e-9 {
		var totW float64
		for _, i := range live {
			totW += weights[i]
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
			tw = float64(len(live))
		}
		capped := live[:0]
		progressed := false
		budget := remaining
		for _, i := range live {
			t := budget * w(i) / tw
			headroom := caps[i] - alloc[i]
			if headroom <= t {
				alloc[i] += headroom
				remaining -= headroom
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
// processes.
func (r *Runner) bwDemand(f float64) float64 {
	var total float64
	if !r.anyCaps {
		for i, s := range r.procs {
			if s.parked {
				continue
			}
			total += r.procGbps(i, f)
		}
		return total
	}
	for c := range r.thrSet {
		r.thrSet[c] = false
	}
	for i, s := range r.procs {
		if s.parked {
			continue
		}
		if !r.thrSet[s.clos] {
			r.thrVal[s.clos] = r.throttleAt(s.clos, f)
			r.thrSet[s.clos] = true
		}
		total += r.procGbps(i, f*r.thrVal[s.clos])
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

	// Advance processes at the solved operating point.
	for i, s := range r.procs {
		if s.parked {
			// A parked core makes no progress but wall-clock time still
			// passes: charge empty cycles so cumulative IPC reflects the
			// lost throughput (this is what the EFU metric must see).
			s.proc.Cycles += dt * r.m.CyclesPerSecond()
			continue
		}
		t := r.throttles[s.clos]
		before := s.proc.MemBytes
		s.proc.AdvanceMissRef(&r.m, r.shares[i], r.opMiss[i], inflation*t, r.curBF, dt)
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

// Inflation returns the memory-latency inflation factor of the last Step.
func (r *Runner) Inflation() float64 { return r.lastInflation }

// Utilisation returns the memory-link utilisation of the last Step.
func (r *Runner) Utilisation() float64 { return r.lastUtil }

// CoreCounters are the cumulative per-core performance counters.
type CoreCounters struct {
	Core         int
	Clos         int
	Name         string  // profile name, for reporting
	Instructions float64 // retired instructions
	Cycles       float64 // elapsed core cycles
	Completions  int     // whole-profile completions (restarts)
}

// IPC returns cumulative instructions per cycle.
func (c CoreCounters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return c.Instructions / c.Cycles
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
	snap.Time = r.time
	if len(r.procs) > 0 {
		r.solveShares()
	}
	occ := growF64(r.occBuf, len(r.masks))
	r.occBuf = occ
	for c := range occ {
		occ[c] = 0
	}
	snap.Cores = snap.Cores[:0]
	snap.Clos = snap.Clos[:0]
	for i, s := range r.procs {
		if !s.parked {
			o := s.proc.PhaseRef().Curve.OccupancyDemand(r.shares[i])
			if o > r.shares[i] {
				o = r.shares[i]
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

// grow helpers: reslice when capacity suffices, reallocate otherwise.
// Callers fully overwrite the live prefix before reading it.

func growF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n)
}

func growInt(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func growBool(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}
