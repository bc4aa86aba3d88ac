package obs

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestSnapshotMetricsCoverEveryField walks Snapshot by reflection and
// checks that each additive field (every int64 and map outside DAG) is
// declared by exactly one SnapshotMetrics row, so a new counter cannot
// be added to the struct without also being merged.
func TestSnapshotMetricsCoverEveryField(t *testing.T) {
	probe := new(Snapshot)
	base := uintptr(unsafe.Pointer(probe))
	declared := make(map[uintptr]int)
	for _, c := range SnapshotMetrics {
		if c.Field != nil {
			declared[uintptr(unsafe.Pointer(c.Field(probe)))-base]++
		}
		if c.Map != nil {
			declared[uintptr(unsafe.Pointer(c.Map(probe)))-base]++
		}
	}
	var walk func(typ reflect.Type, off uintptr, path string)
	walk = func(typ reflect.Type, off uintptr, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, at := path+f.Name, off+f.Offset
			switch {
			case name == "DAG" || name == "Phases":
				// Merged by their own rules.
			case f.Type.Kind() == reflect.Struct:
				walk(f.Type, at, name+".")
			case f.Type.Kind() == reflect.Int64 || f.Type.Kind() == reflect.Map:
				if n := declared[at]; n != 1 {
					t.Errorf("Snapshot.%s is declared by %d SnapshotMetrics rows, want 1", name, n)
				}
				delete(declared, at)
			default:
				t.Errorf("Snapshot.%s has unexpected type %s", name, f.Type)
			}
		}
	}
	walk(reflect.TypeOf(Snapshot{}), 0, "")
	if len(declared) != 0 {
		t.Errorf("%d rows point outside Snapshot's counters", len(declared))
	}
}

// TestRecAdd checks that Add folds a partial snapshot into the record,
// labelled maps included, and End carries it to the attached Stats.
func TestRecAdd(t *testing.T) {
	var st Stats
	r := Begin(&st, nil, "portfolio", "find")
	r.Add(Snapshot{Portfolio: PortfolioStats{Races: 1, WinsBy: map[string]int64{"sat": 1}, LoserAborts: 4}})
	r.Add(Snapshot{Portfolio: PortfolioStats{Races: 1, WinsBy: map[string]int64{"sat": 1, "bdd": 1}}})
	r.Add(Snapshot{Absint: AbsintStats{Presolves: 1, AutoPicks: map[string]int64{"sat": 1}}})
	r.End()
	s := st.Snapshot()
	if s.Portfolio.Races != 2 || s.Portfolio.LoserAborts != 4 ||
		s.Portfolio.WinsBy["sat"] != 2 || s.Portfolio.WinsBy["bdd"] != 1 {
		t.Fatalf("portfolio = %+v", s.Portfolio)
	}
	if s.Absint.Presolves != 1 || s.Absint.AutoPicks["sat"] != 1 {
		t.Fatalf("absint = %+v", s.Absint)
	}
	// The snapshot is a deep copy: mutating it leaves the Stats intact.
	s.Portfolio.WinsBy["sat"] = 99
	if st.Snapshot().Portfolio.WinsBy["sat"] != 2 {
		t.Fatal("Snapshot shares its maps with the Stats")
	}
}
