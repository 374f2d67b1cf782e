// Package cache implements a set-associative, way-partitioned last-level
// cache simulator with the allocation semantics of Intel Cache Allocation
// Technology (CAT):
//
//   - Each access is tagged with a class of service (CLOS).
//   - Each CLOS has a capacity bit-mask (CBM) selecting the ways it may
//     *fill*. Lookups hit in any way — CAT restricts allocation, not
//     visibility.
//   - On a miss, the victim is the least-recently-used line among the ways
//     permitted by the accessing CLOS's mask.
//   - Changing a mask does not flush anything: lines outside the new mask
//     stay resident until naturally evicted, exactly as on real hardware
//     (DICER paper §3.3: "the contents of the LLC are not affected; they
//     remain intact until they are evicted by future LLC misses").
//
// Per-CLOS occupancy is tracked the way Cache Monitoring Technology (CMT)
// does: a line is charged to the CLOS that filled it, and the charge moves
// only when the line is refilled by another CLOS.
//
// The simulator exists as a substrate: it validates the analytic miss-ratio
// curves in internal/mrc against real LRU behaviour and backs the
// trace-driven examples. The system-level co-location simulator
// (internal/sim) uses the analytic model for speed.
package cache

import (
	"fmt"
	"math/bits"
)

// MaxWays is the largest associativity the simulator supports. 64 matches
// the width of a CBM word and comfortably exceeds real LLC associativity
// (the paper's Xeon E5-2630 v4 has a 20-way LLC).
const MaxWays = 64

// Config describes cache geometry.
type Config struct {
	SizeBytes int // total capacity in bytes
	Ways      int // associativity
	LineBytes int // line size in bytes
	Clos      int // number of classes of service (>=1)
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a positive power of two", c.LineBytes)
	}
	if c.Ways <= 0 || c.Ways > MaxWays {
		return fmt.Errorf("cache: ways %d out of range [1,%d]", c.Ways, MaxWays)
	}
	if c.Clos <= 0 {
		return fmt.Errorf("cache: need at least one CLOS, got %d", c.Clos)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d is not a positive multiple of ways*line (%d)",
			c.SizeBytes, c.Ways*c.LineBytes)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// FullMask returns the CBM selecting all ways.
func (c Config) FullMask() uint64 {
	if c.Ways == MaxWays {
		return ^uint64(0)
	}
	return (uint64(1) << uint(c.Ways)) - 1
}

// Stats accumulates per-CLOS access statistics.
type Stats struct {
	Accesses uint64
	Misses   uint64
	// Evictions counts lines this CLOS evicted (from any owner).
	Evictions uint64
	// EvictedBy counts lines owned by this CLOS that were evicted by a
	// different CLOS; with disjoint masks this must stay zero — the
	// partition-isolation property the DICER design relies on.
	EvictedBy uint64
}

// MissRatio returns Misses/Accesses (0 when there were no accesses).
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a way-partitioned set-associative cache. It is not safe for
// concurrent use; callers that share one across goroutines must serialise
// access (the simulator drives it from a single goroutine).
type Cache struct {
	cfg      Config
	setShift uint
	sets     uint64

	// Structure-of-arrays per line state, indexed [set*ways + way].
	tags  []uint64
	valid []bool
	owner []int32 // CLOS that filled the line
	used  []uint64

	masks []uint64 // per-CLOS CBM
	stats []Stats

	clock     uint64
	occupancy []int64 // lines owned per CLOS

	repl     Replacement
	nruEpoch []uint64 // per-set epoch stamp for NRU reference bits
	rngState uint64   // seeded generator for Random replacement
}

// New builds a cache from cfg. All CLOS masks start as the full mask
// (hardware reset state).
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	n := sets * cfg.Ways
	c := &Cache{
		cfg:       cfg,
		setShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		sets:      uint64(sets),
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		owner:     make([]int32, n),
		used:      make([]uint64, n),
		masks:     make([]uint64, cfg.Clos),
		stats:     make([]Stats, cfg.Clos),
		occupancy: make([]int64, cfg.Clos),
		nruEpoch:  make([]uint64, sets),
		rngState:  1,
	}
	full := cfg.FullMask()
	for i := range c.masks {
		c.masks[i] = full
	}
	return c, nil
}

// SetMask installs a capacity bit-mask for clos. The mask must be non-zero,
// contiguous (a CAT hardware requirement) and confined to the implemented
// ways. It returns the previous mask.
func (c *Cache) SetMask(clos int, mask uint64) (uint64, error) {
	if clos < 0 || clos >= len(c.masks) {
		return 0, fmt.Errorf("cache: clos %d out of range [0,%d)", clos, len(c.masks))
	}
	if err := CheckMask(mask, c.cfg.Ways); err != nil {
		return 0, err
	}
	prev := c.masks[clos]
	c.masks[clos] = mask
	return prev, nil
}

// CheckMask validates a CBM: non-zero, contiguous set bits, within ways.
func CheckMask(mask uint64, ways int) error {
	if mask == 0 {
		return fmt.Errorf("cache: empty mask")
	}
	if ways < MaxWays && mask>>uint(ways) != 0 {
		return fmt.Errorf("cache: mask %#x exceeds %d ways", mask, ways)
	}
	// A contiguous run of ones, shifted down by its trailing zeros, is of
	// the form 2^k - 1.
	m := mask >> uint(bits.TrailingZeros64(mask))
	if m&(m+1) != 0 {
		return fmt.Errorf("cache: mask %#x is not contiguous", mask)
	}
	return nil
}

// Access simulates one access by clos to byte address addr and reports
// whether it hit.
func (c *Cache) Access(clos int, addr uint64) bool {
	if clos < 0 || clos >= len(c.masks) {
		panic(fmt.Sprintf("cache: clos %d out of range", clos))
	}
	c.clock++
	st := &c.stats[clos]
	st.Accesses++

	tag := addr >> c.setShift
	set := int(tag % c.sets)
	base := set * c.cfg.Ways

	// Lookup: hits are visible in every way regardless of masks.
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.used[i] = c.clock
			return true
		}
	}

	// Miss: pick a victim among the ways this CLOS may fill. Invalid ways
	// win outright; otherwise the active replacement policy chooses.
	st.Misses++
	mask := c.masks[clos]
	victim := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if mask&(1<<uint(w)) != 0 && !c.valid[base+w] {
			victim = base + w
			break
		}
	}
	if victim < 0 {
		victim = c.victimWay(base, mask)
	}
	if victim < 0 {
		// CheckMask guarantees at least one way; unreachable.
		panic("cache: no victim way available")
	}
	if c.valid[victim] {
		prev := int(c.owner[victim])
		c.occupancy[prev]--
		st.Evictions++
		if prev != clos {
			c.stats[prev].EvictedBy++
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.owner[victim] = int32(clos)
	c.used[victim] = c.clock
	c.occupancy[clos]++
	return false
}

// Stats returns a copy of the statistics for clos.
func (c *Cache) Stats(clos int) Stats { return c.stats[clos] }

// ResetStats zeroes all per-CLOS statistics without touching cache contents.
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = Stats{}
	}
}

// ContiguousMask builds a CBM of width ways starting at the given low way,
// e.g. ContiguousMask(1, 19) selects ways 1..19.
func ContiguousMask(low, width int) uint64 {
	if width <= 0 {
		return 0
	}
	if width >= MaxWays {
		return ^uint64(0) << uint(low)
	}
	return ((uint64(1) << uint(width)) - 1) << uint(low)
}
