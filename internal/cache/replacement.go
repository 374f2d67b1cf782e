package cache

import "fmt"

// Replacement selects the victim-choice policy used on fills. The DICER
// model assumes LRU; the alternative policies exist to check how sensitive
// the miss-ratio shapes are to that assumption (real LLCs run PLRU/NRU
// approximations, and the shapes must survive the approximation for the
// model to transfer).
type Replacement int

// Supported replacement policies.
const (
	// LRU evicts the least-recently-used line among the allowed ways.
	LRU Replacement = iota
	// NRU keeps one reference bit per line: hits set it, and the victim
	// is the first allowed way with a clear bit (clearing all allowed
	// bits when none is clear) — the classic not-recently-used
	// approximation most real LLCs implement variants of.
	NRU
	// Random evicts a uniformly random allowed way (seeded,
	// deterministic).
	Random
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case NRU:
		return "NRU"
	case Random:
		return "Random"
	}
	return fmt.Sprintf("Replacement(%d)", int(r))
}

// ParseReplacement parses a policy name (case-sensitive short forms).
func ParseReplacement(s string) (Replacement, error) {
	switch s {
	case "lru", "LRU":
		return LRU, nil
	case "nru", "NRU":
		return NRU, nil
	case "random", "Random", "rand":
		return Random, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// SetReplacement switches the victim-selection policy. Contents and
// statistics are unaffected; recency state carries over naturally (LRU
// timestamps double as NRU reference recency via the epoch check).
func (c *Cache) SetReplacement(r Replacement) error {
	switch r {
	case LRU, NRU, Random:
		c.repl = r
		return nil
	}
	return fmt.Errorf("cache: unknown replacement policy %v", r)
}

// victimWay picks the way to fill within base..base+ways-1 under mask.
// Invalid ways always win first (the caller checks them before calling
// this only for the all-valid case).
func (c *Cache) victimWay(base int, mask uint64) int {
	switch c.repl {
	case NRU:
		// Reference bit = "used since the set's last NRU epoch". We track
		// epochs per set in nruEpoch; a line is "referenced" if its used
		// stamp is newer than the epoch.
		set := base / c.cfg.Ways
		for {
			for w := 0; w < c.cfg.Ways; w++ {
				if mask&(1<<uint(w)) == 0 {
					continue
				}
				if c.used[base+w] <= c.nruEpoch[set] {
					return base + w
				}
			}
			// All allowed ways referenced: start a new epoch.
			c.nruEpoch[set] = c.clock
		}
	case Random:
		// Count allowed ways, then index with the seeded generator.
		n := 0
		for w := 0; w < c.cfg.Ways; w++ {
			if mask&(1<<uint(w)) != 0 {
				n++
			}
		}
		k := int(c.rngNext() % uint64(n))
		for w := 0; w < c.cfg.Ways; w++ {
			if mask&(1<<uint(w)) != 0 {
				if k == 0 {
					return base + w
				}
				k--
			}
		}
		panic("cache: random victim selection ran out of ways")
	default: // LRU
		victim := -1
		var oldest uint64 = ^uint64(0)
		for w := 0; w < c.cfg.Ways; w++ {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			i := base + w
			if c.used[i] < oldest {
				oldest = c.used[i]
				victim = i
			}
		}
		return victim
	}
}

// rngNext is a splitmix64 step for Random replacement.
func (c *Cache) rngNext() uint64 {
	c.rngState += 0x9e3779b97f4a7c15
	z := c.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
