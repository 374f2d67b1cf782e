package chaos

import (
	"reflect"
	"testing"
)

func TestGenNodeScheduleDeterministic(t *testing.T) {
	a := GenNodeSchedule("s", 42, 8, 200, 0.02, 0.005, 4)
	b := GenNodeSchedule("s", 42, 8, 200, 0.02, 0.005, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different node schedules")
	}
	c := GenNodeSchedule("s", 43, 8, 200, 0.02, 0.005, 4)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical node schedules (suspicious)")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(a.Events) == 0 {
		t.Fatal("expected events at these rates over 8x200 cells")
	}
}

func TestNodeScheduleValidate(t *testing.T) {
	bad := []NodeSchedule{
		{Events: []NodeEvent{{Period: -1, Node: 0, Fault: NodeLoss}}},
		{Events: []NodeEvent{{Period: 0, Node: -2, Fault: NodeLoss}}},
		{Events: []NodeEvent{{Period: 0, Node: 0, Fault: NodeFreeze, Periods: 0}}},
		{Events: []NodeEvent{{Period: 0, Node: 0, Fault: "explode"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d should fail validation", i)
		}
	}
	ok := NodeSchedule{Events: []NodeEvent{
		{Period: 3, Node: 1, Fault: NodeFreeze, Periods: 2},
		{Period: 9, Node: 0, Fault: NodeLoss},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if got := ok.At(3); len(got) != 1 || got[0].Fault != NodeFreeze {
		t.Fatalf("At(3) = %+v", got)
	}
	if got := ok.At(4); len(got) != 0 {
		t.Fatalf("At(4) = %+v, want empty", got)
	}
}

func TestNodeScheduleByName(t *testing.T) {
	for _, name := range []string{"none", "node-freeze", "node-loss", "node-storm"} {
		s, err := NodeScheduleByName(name, 1, 4, 100)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "none" && len(s.Events) > 0 {
			t.Fatal("none should be inactive")
		}
	}
	if _, err := NodeScheduleByName("bogus", 1, 4, 100); err == nil {
		t.Fatal("unknown schedule should error")
	}
}
