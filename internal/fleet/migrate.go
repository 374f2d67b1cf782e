package fleet

import "fmt"

// MigrationConfig parameterises SLO-burn-driven BE migration. The node
// controller (CAT way partitioning) is the first line of defence for an
// HP's SLO; when it is not enough — the node's multi-window burn-rate
// alert fires — the fleet acts, evicting the node's heaviest BE jobs
// back into the admission queue for re-placement elsewhere through the
// normal bounded-retry path. Hysteresis is layered three deep so a node
// is never thrashed: the alerter's own clear-hold, a per-node eviction
// cooldown, and a placement quarantine that keeps evicted load from
// bouncing straight back.
type MigrationConfig struct {
	// Enabled turns the migration engine on. The zero value keeps the
	// fleet static and its traces byte-identical.
	Enabled bool `json:"enabled"`
}

// The migration engine's fixed parameters. Its per-node burn-rate rule
// is slo.DefaultAlertConfig.
const (
	// maxEvict bounds evictions per node per migration decision.
	maxEvict = 2
	// migrationCooldown is the minimum spacing between two migration
	// decisions on the same node.
	migrationCooldown = 10
	// quarantinePeriods keeps a just-evicted node out of the placement
	// candidate set, so its own evictees (and new arrivals) cannot land
	// back on it while it recovers.
	quarantinePeriods = 10
	// evictBackoff delays an evicted job's next placement attempt.
	evictBackoff = 1
)

// migrateLocked is the per-period migration pass, run at the top of the
// step on the previous periods' alert state. For each node whose alert
// is firing and whose cooldown has expired, it evicts up to maxEvict BE
// jobs — heaviest predicted bandwidth first, ties to the lower core —
// back into the queue with backoff, then quarantines the node against
// placements. Jobs at the placement-attempt bound are never evicted
// (migration must not be a path to dropping work), and eviction stops
// rather than overflow the admission queue.
func (c *Cluster) migrateLocked(p int, rec *ClusterRecord) {
	for i, n := range c.nodes {
		if n.lost || n.retired || n.Frozen(p) || n.beCount == 0 {
			continue
		}
		if !c.alerters[i].Firing() || p < c.migNext[i] {
			continue
		}
		var jobIDs []int
		for len(jobIDs) < maxEvict && len(c.queue) < c.cfg.QueueCap {
			beWays := n.beWays()
			bestCore := -1
			bestScore := 0.0
			for core := n.hpCount; core < len(n.jobs); core++ {
				j := n.jobs[core]
				if j == nil || j.Attempts >= maxPlaceAttempts {
					continue
				}
				s := PredictJobGbps(c.cfg.Machine, j.Profile, beWays, n.beCount)
				if bestCore < 0 || s > bestScore {
					bestCore, bestScore = core, s
				}
			}
			if bestCore < 0 {
				break
			}
			j := n.evict(bestCore)
			j.NotBefore = p + evictBackoff
			c.queue = append(c.queue, j)
			jobIDs = append(jobIDs, j.ID)
		}
		if len(jobIDs) == 0 {
			continue
		}
		c.quarUntil[i] = p + quarantinePeriods
		c.migNext[i] = p + migrationCooldown
		rec.Evicted += len(jobIDs)
		c.res.Evicted += len(jobIDs)
		c.res.Migrations++
		burns := c.alerters[i].Burns()
		rec.Events = append(rec.Events, FleetEvent{
			Cause:  CauseMigration,
			Node:   n.ID(),
			Jobs:   jobIDs,
			Detail: fmt.Sprintf("burn=%.2f/%.2f be=%d", burns[0], burns[len(burns)-1], n.beCount),
		})
	}
}
