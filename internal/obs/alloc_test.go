package obs

import (
	"testing"

	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/mrc"
	"dicer/internal/resctrl"
)

// TestRecorderAllocFree pins the observability layer's hot-path
// guarantee: assembling and emitting a record costs zero heap
// allocations through the no-op sink and through a ring — the two sinks
// meant to stay attached for the lifetime of a deployment — for both
// record layouts: v1 on the two-CLOS controller and v2 on a grouped
// three-HP controller. A regression here means a slice, closure, or
// interface boxing crept into EndPeriod (or a sink started copying
// lazily).
func TestRecorderAllocFree(t *testing.T) {
	v1 := func(*testing.T) *core.Controller { return core.MustNew(core.DefaultConfig()) }
	// Each layout's readings: steady, then a degraded/improved pair whose
	// alternation keeps the groups resetting and validating.
	v1Readings := [3]resctrl.Period{period(1.0, 0.8, 5, 20), period(0.6, 0.8, 5, 20), period(1.4, 0.8, 5, 20)}
	v2Readings := [3]resctrl.Period{groupedPeriod(1.0, 0.8), groupedPeriod(0.6, 1.2), groupedPeriod(1.4, 0.7)}
	cases := []struct {
		name     string
		sink     Sink
		ctl      func(*testing.T) *core.Controller
		readings [3]resctrl.Period
	}{
		{"nop", NopSink{}, v1, v1Readings},
		{"ring", NewRing(64), v1, v1Readings},
		{"multi-nop-ring", MultiSink{NopSink{}, NewRing(64)}, v1, v1Readings},
		{"v2-grouped-nop", NopSink{}, threeHP, v2Readings},
		{"v2-grouped-ring", NewRing(64), threeHP, v2Readings},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctl := tc.ctl(t)
			sys := &fakeSystem{ways: 20}
			rec := NewRecorder(tc.sink)
			rec.AttachController(ctl)
			if err := ctl.Setup(sys); err != nil {
				t.Fatal(err)
			}
			steady := tc.readings[0]
			for i := 0; i < 30; i++ {
				if err := ctl.Observe(sys, steady); err != nil {
					t.Fatal(err)
				}
				rec.EndPeriod(i, steady, sys, nil)
			}
			n := 30
			if got := testing.AllocsPerRun(200, func() {
				if err := ctl.Observe(sys, steady); err != nil {
					t.Fatal(err)
				}
				rec.EndPeriod(n, steady, sys, nil)
				n++
			}); got != 0 {
				t.Errorf("steady traced period: %v allocs, want 0", got)
			}

			// The decision-emitting path (oscillating IPC forces resets
			// and validates, each folding events into the record) must be
			// allocation-free too — the fixed decision buffers exist for
			// exactly this.
			flip := false
			if got := testing.AllocsPerRun(200, func() {
				flip = !flip
				p := tc.readings[1]
				if flip {
					p = tc.readings[2]
				}
				if err := ctl.Observe(sys, p); err != nil {
					t.Fatal(err)
				}
				rec.EndPeriod(n, p, sys, nil)
				n++
			}); got != 0 {
				t.Errorf("decision-emitting traced period: %v allocs, want 0", got)
			}
		})
	}
}

// threeHP builds a grouped controller with one CLOS group per HP app on
// CLOS 0-2 and BE on CLOS 3.
func threeHP(t *testing.T) *core.Controller {
	t.Helper()
	specs := make([]cluster.AppSpec, 3)
	for i, mb := range []float64{16, 8, 2} {
		specs[i] = cluster.AppSpec{Name: "hp", Core: i, SLO: 0.9,
			Curve: mrc.MustCurve(0.05, mrc.Component{Bytes: mb * (1 << 20), Frac: 0.6})}
	}
	return core.MustNewMulti(core.MultiConfig{
		Group:      core.DefaultConfig(),
		WayBytes:   1.25 * (1 << 20),
		CLOSBudget: 4,
		Grouping:   core.GroupingPerApp,
	}, specs)
}

// groupedPeriod is a three-group reading: group 0 at ipc0, groups 1 and
// 2 at ipc12, BE on CLOS 3.
func groupedPeriod(ipc0, ipc12 float64) resctrl.Period {
	return resctrl.Period{
		Seconds: 1,
		Cores: []resctrl.PeriodCore{
			{Core: 0, Clos: 0, IPC: ipc0},
			{Core: 1, Clos: 1, IPC: ipc12},
			{Core: 2, Clos: 2, IPC: ipc12},
			{Core: 3, Clos: 3, IPC: 0.5},
		},
		Groups: []resctrl.PeriodGroup{
			{Clos: 0, BandwidthGbps: 5, OccupancyBytes: 1 << 20},
			{Clos: 1, BandwidthGbps: 4},
			{Clos: 2, BandwidthGbps: 3},
			{Clos: 3, BandwidthGbps: 8},
		},
		TotalGbps: 20,
	}
}

// BenchmarkTraceRecord measures one traced monitoring period: controller
// Observe plus record assembly and emission. CI's bench-smoke runs it
// with -benchmem as the allocation guard (0 allocs/op).
func BenchmarkTraceRecord(b *testing.B) {
	for _, tc := range []struct {
		name string
		sink Sink
	}{
		{"nop", NopSink{}},
		{"ring", NewRing(64)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctl := core.MustNew(core.DefaultConfig())
			sys := &fakeSystem{ways: 20}
			rec := NewRecorder(tc.sink)
			rec.AttachController(ctl)
			if err := ctl.Setup(sys); err != nil {
				b.Fatal(err)
			}
			steady := period(1.0, 0.8, 5, 20)
			for i := 0; i < 30; i++ {
				if err := ctl.Observe(sys, steady); err != nil {
					b.Fatal(err)
				}
				rec.EndPeriod(i, steady, sys, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctl.Observe(sys, steady); err != nil {
					b.Fatal(err)
				}
				rec.EndPeriod(i, steady, sys, nil)
			}
		})
	}
}
