package chaos

// Node-level fault schedules for the fleet layer. Where Config injects
// faults *inside* one server's monitoring/actuation path, a NodeSchedule
// injects faults *around* whole servers: a node freezes (stops stepping
// and heartbeating for a bounded number of monitoring periods) or is
// lost outright (never comes back; its best-effort jobs must be
// re-placed elsewhere). Schedules are either written out explicitly as
// events or generated from a seed, and either way they are a pure
// function of their inputs — the same schedule replays bit-identically.

import (
	"fmt"
	"math/rand"
	"sort"
)

// NodeFault is the kind of a node-level fault event.
type NodeFault string

// Node-level fault kinds.
const (
	// NodeFreeze suspends a node for Periods monitoring periods: it does
	// not step, its jobs make no progress, and it misses heartbeats, so
	// the fleet must treat it as unplaceable until it thaws.
	NodeFreeze NodeFault = "freeze"
	// NodeLoss kills a node permanently. Jobs running on it are
	// orphaned and handed back to the fleet for re-placement.
	NodeLoss NodeFault = "loss"
)

// NodeEvent is one scheduled node-level fault.
type NodeEvent struct {
	// Period is the monitoring period at whose start the event fires.
	Period int `json:"period"`
	// Node is the target node index.
	Node int `json:"node"`
	// Fault is the event kind.
	Fault NodeFault `json:"fault"`
	// Periods is the freeze duration; ignored for NodeLoss.
	Periods int `json:"periods,omitempty"`
}

// NodeSchedule is a named, ordered list of node-level fault events.
type NodeSchedule struct {
	Name   string      `json:"name"`
	Events []NodeEvent `json:"events"`
}

// Validate reports schedule configuration errors.
func (s NodeSchedule) Validate() error {
	for i, e := range s.Events {
		if e.Period < 0 {
			return fmt.Errorf("chaos: node event %d has negative period %d", i, e.Period)
		}
		if e.Node < 0 {
			return fmt.Errorf("chaos: node event %d has negative node %d", i, e.Node)
		}
		switch e.Fault {
		case NodeFreeze:
			if e.Periods <= 0 {
				return fmt.Errorf("chaos: node event %d freeze needs positive duration", i)
			}
		case NodeLoss:
		default:
			return fmt.Errorf("chaos: node event %d has unknown fault %q", i, e.Fault)
		}
	}
	return nil
}

// At returns the events firing at the given period, in schedule order.
func (s NodeSchedule) At(period int) []NodeEvent {
	var out []NodeEvent
	for _, e := range s.Events {
		if e.Period == period {
			out = append(out, e)
		}
	}
	return out
}

// GenNodeSchedule draws a node-level fault schedule from a seed:
// per period and node, a freeze fires with freezeProb (for a duration
// uniform in [1, maxFreeze]) and a loss with lossProb. Events are sorted
// by (period, node) so the schedule is canonical. The same arguments
// always produce the same schedule.
func GenNodeSchedule(name string, seed int64, nodes, horizon int, freezeProb, lossProb float64, maxFreeze int) NodeSchedule {
	if maxFreeze < 1 {
		maxFreeze = 1
	}
	rng := rand.New(rand.NewSource(seed))
	s := NodeSchedule{Name: name}
	for p := 0; p < horizon; p++ {
		for n := 0; n < nodes; n++ {
			// Draw both variates unconditionally so the stream consumed
			// per (period, node) cell is fixed and the schedule for a
			// prefix of nodes/horizon is a prefix-independent function of
			// the seed only through ordering.
			f := rng.Float64()
			l := rng.Float64()
			d := rng.Intn(maxFreeze) + 1
			if l < lossProb {
				s.Events = append(s.Events, NodeEvent{Period: p, Node: n, Fault: NodeLoss})
			} else if f < freezeProb {
				s.Events = append(s.Events, NodeEvent{Period: p, Node: n, Fault: NodeFreeze, Periods: d})
			}
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].Period != s.Events[j].Period {
			return s.Events[i].Period < s.Events[j].Period
		}
		return s.Events[i].Node < s.Events[j].Node
	})
	return s
}

// NodeSchedules returns the canned node-level schedules the fleet soak
// and the dicer-fleet -node-chaos flag expose. Durations are in
// monitoring periods; probabilities are per node per period, so expected
// event counts scale with cluster size and horizon.
func NodeSchedules(seed int64, nodes, horizon int) []NodeSchedule {
	return []NodeSchedule{
		GenNodeSchedule("node-freeze", seed, nodes, horizon, 0.01, 0, 5),
		GenNodeSchedule("node-loss", seed, nodes, horizon, 0, 0.002, 1),
		GenNodeSchedule("node-storm", seed, nodes, horizon, 0.008, 0.001, 4),
	}
}

// NodeScheduleByName draws the canned schedule with the given name;
// "none" returns an inactive schedule.
func NodeScheduleByName(name string, seed int64, nodes, horizon int) (NodeSchedule, error) {
	if name == "" || name == "none" {
		return NodeSchedule{Name: "none"}, nil
	}
	for _, s := range NodeSchedules(seed, nodes, horizon) {
		if s.Name == name {
			return s, nil
		}
	}
	return NodeSchedule{}, fmt.Errorf("chaos: unknown node schedule %q (have none, node-freeze, node-loss, node-storm)", name)
}
