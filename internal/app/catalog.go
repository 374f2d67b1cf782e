// Catalog of the 59 applications used throughout the evaluation, mirroring
// the paper's mix: 25 SPEC CPU 2006 programs (8 of them with multiple
// inputs) and 9 serial PARSEC 3.0 programs. Since the benchmark binaries
// are not available in this environment, each entry is a synthetic profile
// whose parameters (base CPI, LLC access rate, working-set mixture,
// streaming fraction) encode the qualitative behaviour reported for the
// benchmark in the characterisation literature:
//
//   - memory-bound streamers (milc, lbm, libquantum, bwaves, leslie3d,
//     GemsFDTD, zeusmp, streamcluster): high APKI, large always-miss
//     fraction, small hot sets — they saturate the link, not the cache;
//   - cache-sensitive programs (omnetpp, Xalan, soplex, sphinx, astar,
//     canneal, mcf, gcc, …): multi-level working sets of 1–18 MB whose
//     coverage determines IPC;
//   - compute-bound programs (namd, povray, gromacs, swaptions, …): light
//     LLC traffic, nearly flat miss curves.
//
// Multi-input SPEC programs (gcc ×9, bzip2 ×6, gobmk ×5, astar ×3,
// h264ref ×3, hmmer ×3, perlbench ×2, soplex ×2) are generated as
// deterministic perturbations of the base profile, scaling working sets,
// access rates and instruction budgets the way different reference inputs
// do on real hardware. Names carry the input index (gcc_base1 … gcc_base9,
// bzip21 … bzip26), matching the workload labels in the paper's Figure 5.
package app

import (
	"fmt"
	"sort"
	"sync"

	"dicer/internal/mrc"
)

// MB is one mebibyte, as a float for working-set arithmetic.
const MB = float64(1 << 20)

// G is 10^9 instructions, the unit of phase budgets below.
const G = 1e9

// base describes one benchmark program before input perturbation.
type base struct {
	name   string
	suite  string
	class  Class
	inputs int // number of input variants to generate (>=1)
	phases []basePhase
}

type basePhase struct {
	name   string
	instrG float64 // instruction budget in 10^9
	cpi    float64
	apki   float64
	stream float64
	comps  []mrc.Component // sizes in bytes
}

// catalog returns the full 59-profile catalog, sorted by name.
func catalog() []Profile {
	bases := []base{
		// ---- SPEC CPU 2006: memory-bound streamers -------------------
		{"milc", "spec2006", ClassStream, 1, []basePhase{
			{"sweep", 50, 0.60, 22, 0.60, comps(2.2*MB, 0.30)},
		}},
		{"lbm", "spec2006", ClassStream, 1, []basePhase{
			{"stream", 55, 0.55, 28, 0.70, comps(1.5*MB, 0.22)},
		}},
		{"libquantum", "spec2006", ClassStream, 1, []basePhase{
			{"gates", 60, 0.50, 30, 0.80, comps(0.5*MB, 0.15)},
		}},
		{"bwaves", "spec2006", ClassStream, 1, []basePhase{
			{"solver", 60, 0.60, 20, 0.55, comps(3*MB, 0.30, 12*MB, 0.08)},
		}},
		{"leslie3d", "spec2006", ClassStream, 1, []basePhase{
			{"stencil", 55, 0.65, 18, 0.50, comps(4*MB, 0.35)},
		}},
		{"GemsFDTD", "spec2006", ClassStream, 1, []basePhase{
			{"fdtd", 50, 0.60, 21, 0.55, comps(5*MB, 0.30)},
		}},
		{"zeusmp", "spec2006", ClassStream, 1, []basePhase{
			{"mhd", 55, 0.70, 14, 0.45, comps(4*MB, 0.35)},
		}},
		// mcf: memory-bound AND deeply cache-sensitive (huge graph).
		{"mcf", "spec2006", ClassCache, 1, []basePhase{
			{"simplex", 30, 0.80, 35, 0.25, comps(3*MB, 0.35, 14*MB, 0.24)},
			{"pricing", 15, 0.85, 40, 0.35, comps(2*MB, 0.30, 14*MB, 0.20)},
		}},
		// ---- SPEC CPU 2006: cache-sensitive --------------------------
		{"omnetpp", "spec2006", ClassCache, 1, []basePhase{
			{"events", 50, 0.90, 16, 0.10, comps(1*MB, 0.45, 8*MB, 0.22)},
		}},
		{"Xalan", "spec2006", ClassCache, 1, []basePhase{
			{"parse", 30, 0.85, 14, 0.10, comps(0.8*MB, 0.50, 6*MB, 0.18)},
			{"transform", 25, 0.90, 17, 0.22, comps(1.2*MB, 0.40, 9*MB, 0.18)},
		}},
		{"soplex", "spec2006", ClassCache, 2, []basePhase{
			{"factor", 50, 0.80, 18, 0.20, comps(2*MB, 0.40, 10*MB, 0.18)},
		}},
		{"sphinx", "spec2006", ClassCache, 1, []basePhase{
			{"decode", 40, 0.75, 13, 0.12, comps(2*MB, 0.45, 9*MB, 0.18)},
			{"rescore", 15, 0.70, 18, 0.30, comps(3*MB, 0.40, 9*MB, 0.14)},
		}},
		{"astar", "spec2006", ClassCache, 3, []basePhase{
			{"search", 35, 0.90, 10, 0.08, comps(1.2*MB, 0.50, 3.5*MB, 0.18)},
			{"rejoin", 15, 0.95, 13, 0.18, comps(1.8*MB, 0.45, 3.5*MB, 0.16)},
		}},
		{"gcc", "spec2006", ClassCache, 9, []basePhase{
			{"frontend", 30, 0.85, 11, 0.18, comps(1*MB, 0.42, 2.5*MB, 0.16)},
			{"optimise", 15, 0.90, 14, 0.28, comps(1.5*MB, 0.35, 3*MB, 0.15)},
		}},
		{"bzip2", "spec2006", ClassCache, 6, []basePhase{
			{"compress", 28, 0.80, 8, 0.15, comps(0.8*MB, 0.45, 2*MB, 0.13)},
			{"huffman", 17, 0.75, 10, 0.22, comps(1.1*MB, 0.40, 2*MB, 0.12)},
		}},
		{"perlbench", "spec2006", ClassCache, 2, []basePhase{
			{"interp", 45, 0.90, 7, 0.08, comps(0.9*MB, 0.50, 2*MB, 0.13)},
		}},
		{"hmmer", "spec2006", ClassCompute, 3, []basePhase{
			{"viterbi", 45, 0.70, 5, 0.05, comps(0.5*MB, 0.60)},
		}},
		{"h264ref", "spec2006", ClassCompute, 3, []basePhase{
			{"encode", 45, 0.70, 6, 0.10, comps(0.7*MB, 0.50)},
		}},
		{"sjeng", "spec2006", ClassCompute, 1, []basePhase{
			{"search", 50, 0.85, 6, 0.08, comps(1.5*MB, 0.45)},
		}},
		{"gobmk", "spec2006", ClassCompute, 5, []basePhase{
			{"play", 45, 0.90, 5, 0.06, comps(0.8*MB, 0.45)},
		}},
		// ---- SPEC CPU 2006: compute-bound ----------------------------
		{"namd", "spec2006", ClassCompute, 1, []basePhase{
			{"md", 70, 0.55, 2.5, 0.05, comps(0.5*MB, 0.50)},
		}},
		{"povray", "spec2006", ClassCompute, 1, []basePhase{
			{"render", 60, 0.75, 2, 0.04, comps(0.3*MB, 0.50)},
		}},
		{"gromacs", "spec2006", ClassCompute, 1, []basePhase{
			{"md", 65, 0.60, 3, 0.06, comps(0.6*MB, 0.50)},
		}},
		{"calculix", "spec2006", ClassCompute, 1, []basePhase{
			{"fem", 65, 0.55, 3.5, 0.08, comps(0.8*MB, 0.50)},
		}},
		{"tonto", "spec2006", ClassCompute, 1, []basePhase{
			{"scf", 55, 0.70, 4, 0.06, comps(0.7*MB, 0.45)},
		}},
		// ---- PARSEC 3.0 (serial) --------------------------------------
		{"streamcluster", "parsec3", ClassStream, 1, []basePhase{
			{"cluster", 50, 0.60, 24, 0.55, comps(6*MB, 0.30)},
		}},
		{"canneal", "parsec3", ClassCache, 1, []basePhase{
			{"anneal", 50, 0.85, 15, 0.15, comps(2.5*MB, 0.35, 16*MB, 0.25)},
		}},
		{"ferret", "parsec3", ClassCache, 1, []basePhase{
			{"query", 45, 0.80, 9, 0.10, comps(1.5*MB, 0.50, 2.5*MB, 0.16)},
		}},
		{"dedup", "parsec3", ClassMixed, 1, []basePhase{
			{"chunk", 25, 0.70, 12, 0.30, comps(1*MB, 0.35, 5*MB, 0.25)},
			{"compress", 20, 0.75, 9, 0.18, comps(0.8*MB, 0.45, 3*MB, 0.20)},
		}},
		{"facesim", "parsec3", ClassMixed, 1, []basePhase{
			{"dynamics", 55, 0.75, 10, 0.25, comps(3*MB, 0.40)},
		}},
		{"fluidanimate", "parsec3", ClassMixed, 1, []basePhase{
			{"advance", 30, 0.70, 9, 0.20, comps(2*MB, 0.45)},
			{"rebuild", 20, 0.65, 13, 0.35, comps(3*MB, 0.35)},
		}},
		{"bodytrack", "parsec3", ClassCompute, 1, []basePhase{
			{"track", 45, 0.75, 7, 0.12, comps(1*MB, 0.50)},
		}},
		{"blackscholes", "parsec3", ClassCompute, 1, []basePhase{
			{"price", 60, 0.60, 1.5, 0.05, comps(0.3*MB, 0.50)},
		}},
		{"swaptions", "parsec3", ClassCompute, 1, []basePhase{
			{"simulate", 60, 0.65, 1.2, 0.03, comps(0.2*MB, 0.50)},
		}},
	}

	var out []Profile
	for _, b := range bases {
		for i := 1; i <= b.inputs; i++ {
			out = append(out, b.instantiate(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// comps builds a working-set mixture from (bytes, frac) pairs.
func comps(pairs ...float64) []mrc.Component {
	if len(pairs)%2 != 0 {
		panic("app: comps needs (bytes, frac) pairs")
	}
	out := make([]mrc.Component, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, mrc.Component{Bytes: pairs[i], Frac: pairs[i+1]})
	}
	return out
}

// Input-variant multipliers. Real reference inputs change working-set size
// far more than they change instruction mix, so size moves most.
var (
	sizeMul  = []float64{1.00, 0.55, 1.45, 0.75, 1.90, 0.90, 1.20, 0.65, 1.65}
	apkiMul  = []float64{1.00, 0.88, 1.12, 0.95, 1.22, 0.92, 1.06, 0.85, 1.18}
	instrMul = []float64{1.00, 0.85, 1.10, 0.92, 1.18, 0.88, 1.05, 0.95, 1.12}
)

// instantiate builds the profile for input variant idx (1-based). The gcc
// name carries the paper's "gcc_base<N>" label; everything else is
// "<name><N>".
func (b base) instantiate(idx int) Profile {
	name := fmt.Sprintf("%s%d", b.name, idx)
	if b.name == "gcc" {
		name = fmt.Sprintf("gcc_base%d", idx)
	}
	k := (idx - 1) % len(sizeMul)
	phases := make([]Phase, len(b.phases))
	for i, bp := range b.phases {
		cs := make([]mrc.Component, len(bp.comps))
		for j, c := range bp.comps {
			cs[j] = mrc.Component{Bytes: c.Bytes * sizeMul[k], Frac: c.Frac}
		}
		phases[i] = Phase{
			Name:         bp.name,
			Instructions: bp.instrG * G * instrMul[k],
			BaseCPI:      bp.cpi,
			APKI:         bp.apki * apkiMul[k],
			Curve:        mrc.MustCurve(bp.stream, cs...),
		}
	}
	return Profile{Name: name, Suite: b.suite, Class: b.class, Phases: phases}
}

var (
	catalogOnce  sync.Once
	catalogCache []Profile
)

// Catalog returns the full 59-application catalog, sorted by name. The
// returned slice is shared; callers must not modify it. It is safe for
// concurrent use (experiments fan runs out over goroutines).
func Catalog() []Profile {
	catalogOnce.Do(func() { catalogCache = catalog() })
	return catalogCache
}

// ByName returns the catalog profile with the given name.
func ByName(name string) (Profile, error) {
	cat := Catalog()
	i := sort.Search(len(cat), func(i int) bool { return cat[i].Name >= name })
	if i < len(cat) && cat[i].Name == name {
		return cat[i], nil
	}
	return Profile{}, fmt.Errorf("app: unknown profile %q", name)
}

// MustByName is ByName that panics on error, for examples and tests.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// ByClass returns the catalog profiles of one behaviour class, sorted by
// name (the catalog order). The fleet arrival generator draws from these
// per-class pools so a workload mix can be specified as class weights.
func ByClass(class Class) []Profile {
	var out []Profile
	for _, p := range Catalog() {
		if p.Class == class {
			out = append(out, p)
		}
	}
	return out
}

// Classes returns the behaviour classes in their canonical order.
func Classes() []Class {
	return []Class{ClassStream, ClassCache, ClassCompute, ClassMixed}
}

// Names returns all catalog profile names, sorted.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, p := range cat {
		out[i] = p.Name
	}
	return out
}
