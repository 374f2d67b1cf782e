package fleet

import "fmt"

// AutoscaleConfig parameterises the repartition-first autoscaler. The
// controller watches two signals from the previous period: admission
// queue depth (pressure) and fleet free-core headroom (idleness). A
// pressure episode climbs a two-rung ladder: the first sustained breach
// triggers a repack — drains are cancelled and every multi-HP node's
// cache plan is re-clustered in place — and only if pressure persists
// through a fresh cooldown does the fleet add nodes. Scaling down is
// graceful: an idle fleet drains its emptiest node (no new placements;
// running jobs finish), and drained-empty nodes retire out of the EFU
// denominator.
type AutoscaleConfig struct {
	// Enabled turns the autoscaler on. The zero value keeps the fleet at
	// fixed size and its traces byte-identical.
	Enabled bool `json:"enabled"`
	// MaxNodes / MinNodes bound the working fleet size. Defaults:
	// 2 × initial nodes, and the initial node count.
	MaxNodes int `json:"max_nodes"`
	MinNodes int `json:"min_nodes"`
}

// The autoscaler's fixed parameters. A scale-up adds one node.
const (
	// queueHigh is the queue depth that counts as pressure.
	queueHigh = 8
	// sustainPeriods is how many consecutive periods a signal must hold
	// before the controller acts.
	sustainPeriods = 3
	// autoscaleCooldown is the minimum spacing between control actions,
	// so each decision's effect is observed before the next.
	autoscaleCooldown = 10
	// idleFreeFraction is the free-BE-core fraction (over non-draining
	// working nodes) at or above which an empty-queue fleet counts as
	// idle.
	idleFreeFraction = 0.5
)

// withDefaults fills unset fields in place (only when enabled, so a
// zero config stays zero and static headers stay byte-identical).
func (a *AutoscaleConfig) withDefaults(initialNodes int) {
	if !a.Enabled {
		return
	}
	if a.MaxNodes == 0 {
		a.MaxNodes = 2 * initialNodes
	}
	if a.MinNodes == 0 {
		a.MinNodes = initialNodes
	}
}

// validate reports configuration errors.
func (a AutoscaleConfig) validate() error {
	if !a.Enabled {
		return nil
	}
	if a.MinNodes < 1 {
		return fmt.Errorf("fleet: autoscale min nodes %d < 1", a.MinNodes)
	}
	if a.MaxNodes < a.MinNodes {
		return fmt.Errorf("fleet: autoscale max nodes %d < min nodes %d", a.MaxNodes, a.MinNodes)
	}
	return nil
}

// autoscaleLocked is the per-period autoscaling pass, run at the top of
// the step on the previous period's queue and headroom. Order: retire
// drained-empty nodes (always, no cooldown — it frees nothing but
// bookkeeping), update the pressure/idle streaks, then take at most one
// cooldown-gated action.
func (c *Cluster) autoscaleLocked(p int, rec *ClusterRecord) error {
	a := &c.cfg.Autoscale

	for _, n := range c.nodes {
		if n.draining && !n.lost && !n.retired && n.beCount == 0 {
			n.retired, n.draining = true, false
			c.retiredCount++
			c.res.NodesRetired++
			rec.Events = append(rec.Events, FleetEvent{Cause: CauseScaleDown, Node: n.ID(), Detail: "retire"})
		}
	}

	// Signals. "Working" nodes are neither lost nor retired; draining
	// nodes still work but are excluded from headroom (their capacity is
	// leaving) and from the placeable count that guards MinNodes.
	qlen := len(c.queue)
	working, placeable, free, beCap := 0, 0, 0, 0
	for _, n := range c.nodes {
		if n.lost || n.retired {
			continue
		}
		working++
		if n.draining {
			continue
		}
		placeable++
		free += n.FreeCores()
		beCap += c.cfg.Machine.Cores - n.hpCount
	}
	if qlen > queueHigh {
		c.pressStreak++
	} else {
		c.pressStreak = 0
		// A pressure episode ended: the next one starts back at the
		// repartition rung.
		c.repackTried = false
	}
	if qlen == 0 && beCap > 0 && float64(free)/float64(beCap) >= idleFreeFraction {
		c.idleStreak++
	} else {
		c.idleStreak = 0
	}

	if p < c.coolUntil {
		return nil
	}
	switch {
	case c.pressStreak >= sustainPeriods && !c.repackTried:
		// Rung 1, repartition-first: claw back capacity we already have.
		// Draining nodes return to service, and every working multi-HP
		// node re-clusters its cache plan against its current HP specs.
		undrained, replanned := 0, 0
		for _, n := range c.nodes {
			if n.draining && !n.lost && !n.retired {
				n.draining = false
				undrained++
			}
		}
		for _, n := range c.nodes {
			if n.lost || n.retired || n.Frozen(p) {
				continue
			}
			changed, err := n.Repack()
			if err != nil {
				return err
			}
			if changed {
				replanned++
			}
		}
		c.repackTried = true
		c.coolUntil = p + autoscaleCooldown
		c.res.Repacks++
		rec.Events = append(rec.Events, FleetEvent{
			Cause:  CauseRepack,
			Node:   -1,
			Detail: fmt.Sprintf("undrained=%d replanned=%d queue=%d", undrained, replanned, qlen),
		})
	case c.pressStreak >= sustainPeriods && working < a.MaxNodes:
		// Rung 2: repartitioning did not relieve the pressure — add
		// capacity.
		first := len(c.nodes)
		n, err := c.buildNode(first)
		if err != nil {
			return err
		}
		c.appendNode(n)
		c.coolUntil = p + autoscaleCooldown
		c.res.ScaleUps++
		c.res.NodesAdded++
		rec.Events = append(rec.Events, FleetEvent{
			Cause:  CauseScaleUp,
			Node:   -1,
			Detail: fmt.Sprintf("added=1 first=%d queue=%d", first, qlen),
		})
	case c.idleStreak >= sustainPeriods && placeable > a.MinNodes:
		// Scale down: drain the placeable node with the fewest BE jobs
		// (least work to let finish), ties to the highest ID (newest
		// first, mirroring the scale-up order).
		best := -1
		for i, n := range c.nodes {
			if n.lost || n.retired || n.draining {
				continue
			}
			if best < 0 || n.beCount < c.nodes[best].beCount ||
				(n.beCount == c.nodes[best].beCount && i > best) {
				best = i
			}
		}
		if best >= 0 {
			c.nodes[best].draining = true
			c.coolUntil = p + autoscaleCooldown
			c.res.ScaleDowns++
			c.idleStreak = 0
			rec.Events = append(rec.Events, FleetEvent{Cause: CauseScaleDown, Node: c.nodes[best].ID(), Detail: "drain"})
		}
	}
	return nil
}
