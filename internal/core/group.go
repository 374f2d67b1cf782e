package core

import "math"

// groupState is the DICER state machine for ONE CLOS group of HP
// applications: Listings 1–3 scoped to a [minWays, maxWays] window of
// the LLC. On the two-CLOS split the single group spans [MinHPWays,
// NumWays-MinBEWays]; under a clustering plan each group is bounded by
// its ways budget. The struct is plain, pointer-free data: decisions are
// published and mask changes requested through the owning Controller,
// which installs every group's change in one stacked relayout per
// period, so a group never allocates or touches resctrl directly.
type groupState struct {
	idx int // group index, which is also its CLOS id

	st         state
	ctFavoured bool
	havePrev   bool // prevIPC holds a reading

	cur int // ways currently enforced for this group

	// Partition window: cur moves in [minWays, maxWays]; maxWays is CT's
	// allocation on the two-CLOS split and the plan budget otherwise.
	minWays int
	maxWays int

	// Best-known allocation for CT-T workloads (Listing 1's
	// optimal_allocation and IPC_opt).
	optimal int
	ipcOpt  float64

	// IPC of the previous monitoring period (Eq. 3's IPC_{t-1}).
	prevIPC float64

	// Group bandwidth history for phase detection (Eq. 2). A fixed ring
	// buffer keeps observe allocation-free on the hot path.
	bwHist [3]float64
	bwLen  int // valid entries in bwHist (0..3)
	bwPos  int // next write position

	// Sampling bookkeeping.
	sample  int
	best    int
	bestIPC float64

	// Reset bookkeeping (Listing 3).
	rollback        int
	resetTriggerIPC float64
}

// init resets the group to CT's starting point: all of its window, CT-
// Favoured assumed (Listing 1's initialisation).
func (g *groupState) init(idx, minWays, maxWays int) {
	*g = groupState{
		idx:        idx,
		st:         stOptimise,
		ctFavoured: true,
		cur:        maxWays,
		minWays:    minWays,
		maxWays:    maxWays,
		optimal:    maxWays,
	}
}

// observe is one monitoring period for this group: Listing 1's
// dicer_driver loop body with the group's own IPC and bandwidth reading.
func (g *groupState) observe(c *Controller, ipc, bw, totalBW float64, saturated bool) {
	switch g.st {
	case stSampling:
		g.observeSampling(c, ipc, totalBW)
	case stValidate:
		g.observeValidate(c, ipc, totalBW, saturated)
	default:
		g.observeOptimise(c, ipc, bw, totalBW, saturated)
	}
}

// observeOptimise is Listing 2 plus Listing 1's saturation check.
func (g *groupState) observeOptimise(c *Controller, ipc, bw, totalBW float64, saturated bool) {
	if saturated {
		c.emit(g, EventSaturated, ipc, totalBW)
		g.startSampling(c, ipc, totalBW)
		return
	}

	phase := g.phaseChange(bw, c.cfg.Group.PhaseThreshold) && !c.cfg.Group.DisablePhaseDetection
	g.pushBW(bw)
	if phase {
		c.emit(g, EventPhaseChange, ipc, totalBW)
		g.reset(c, ipc)
		return
	}

	if !g.havePrev {
		g.prevIPC = ipc
		g.havePrev = true
		c.emit(g, EventHold, ipc, totalBW)
		return
	}

	lo := (1 - c.cfg.Group.StabilityAlpha) * g.prevIPC
	hi := (1 + c.cfg.Group.StabilityAlpha) * g.prevIPC
	switch {
	case ipc >= lo && ipc <= hi:
		// Stable (Eq. 3): the allocation exceeds the group's needs; shift
		// one way to the BEs to raise utilisation.
		g.prevIPC = ipc
		if g.cur > g.minWays {
			g.cur--
			c.emit(g, EventShrink, ipc, totalBW)
			c.masksDirty = true
			return
		}
		c.emit(g, EventHold, ipc, totalBW)
	case ipc > hi:
		// Better: a faster phase with the same cache needs; hold.
		g.prevIPC = ipc
		c.emit(g, EventHold, ipc, totalBW)
	default:
		// Worse: either the shrinking went too far or a slower phase
		// began; Listing 2 resets in both cases.
		c.emit(g, EventReset, ipc, totalBW)
		g.reset(c, ipc)
	}
}

// phaseChange evaluates Eq. 2 against the previous three periods.
func (g *groupState) phaseChange(bw, threshold float64) bool {
	if g.bwLen < 3 {
		return false
	}
	gm := math.Cbrt(g.bwHist[0] * g.bwHist[1] * g.bwHist[2])
	return bw > (1+threshold)*gm
}

func (g *groupState) pushBW(bw float64) {
	g.bwHist[g.bwPos] = bw
	g.bwPos = (g.bwPos + 1) % len(g.bwHist)
	if g.bwLen < len(g.bwHist) {
		g.bwLen++
	}
}

// clearBW empties the bandwidth history (after allocation changes, old
// readings would fake a phase change).
func (g *groupState) clearBW() {
	g.bwLen = 0
	g.bwPos = 0
}

// startSampling begins Listing 1's allocation_sampling. The current
// period's reading becomes the first sample (it measured cur ways).
func (g *groupState) startSampling(c *Controller, ipc, totalBW float64) {
	g.ctFavoured = false
	g.st = stSampling
	g.best = g.cur
	g.bestIPC = ipc
	g.sample = g.cur
	g.applyNextSample(c, ipc, totalBW)
}

// observeSampling records the sample measured over the elapsed period
// and applies the next one, or enforces the optimum when done.
func (g *groupState) observeSampling(c *Controller, ipc, totalBW float64) {
	if ipc > g.bestIPC {
		g.bestIPC = ipc
		g.best = g.sample
	}
	g.applyNextSample(c, ipc, totalBW)
}

// applyNextSample steps the sampled allocation down, or finishes sampling.
func (g *groupState) applyNextSample(c *Controller, ipc, totalBW float64) {
	c.masksDirty = true // either branch moves the allocation
	next := g.sample - c.cfg.Group.SampleStep
	if next >= g.minWays {
		g.sample = next
		g.cur = next
		c.emit(g, EventSample, ipc, totalBW)
		return
	}
	// Sampling complete: enforce optimal_allocation and restart the
	// optimisation from there (Listing 1: allocation_sampling).
	g.optimal = g.best
	g.ipcOpt = g.bestIPC
	g.cur = g.optimal
	g.st = stOptimise
	g.prevIPC = g.ipcOpt
	g.havePrev = true
	g.clearBW()
	c.emit(g, EventSampleDone, ipc, totalBW)
}

// reset applies Listing 3's allocation_reset: re-enforce the best-known
// allocation and validate it over the next period.
func (g *groupState) reset(c *Controller, ipc float64) {
	g.rollback = g.cur
	g.resetTriggerIPC = ipc
	if g.ctFavoured {
		g.cur = g.maxWays
	} else {
		g.cur = g.optimal
	}
	g.st = stValidate
	c.masksDirty = true
}

// observeValidate is the monitoring period embedded in Listing 3.
func (g *groupState) observeValidate(c *Controller, ipc, totalBW float64, saturated bool) {
	if saturated {
		c.emit(g, EventSaturated, ipc, totalBW)
		g.startSampling(c, ipc, totalBW)
		return
	}
	if g.ctFavoured {
		if ipc > g.resetTriggerIPC {
			// The reset helped: the degradation was allocation-induced.
			g.resumeOptimise(ipc)
			c.emit(g, EventValidated, ipc, totalBW)
			return
		}
		// The degradation was a slower phase, not the allocation: revert.
		g.cur = g.rollback
		g.resumeOptimise(ipc)
		c.emit(g, EventRollback, ipc, totalBW)
		c.masksDirty = true
		return
	}
	// CT-Thwarted: the reverted allocation must reproduce IPC_opt.
	if ipc >= (1-c.cfg.Group.NearOptTolerance)*g.ipcOpt {
		g.resumeOptimise(ipc)
		c.emit(g, EventValidated, ipc, totalBW)
		return
	}
	// The optimum has moved: sample again.
	c.emit(g, EventReset, ipc, totalBW)
	g.startSampling(c, ipc, totalBW)
}

// resumeOptimise returns to the optimisation state with a fresh IPC
// baseline and cleared bandwidth history (the allocation just changed,
// so old bandwidth readings would fake a phase change).
func (g *groupState) resumeOptimise(ipc float64) {
	g.st = stOptimise
	g.prevIPC = ipc
	g.havePrev = true
	g.clearBW()
}
