package analysis

import (
	"reflect"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
)

// TestEpochAccountGuardsEvidence checks the real types against the
// analyzer's protected set: every field of mem.Evidence, and every
// Evidence-typed field of mem.PageDescriptor and core.PageStat. A new
// evidence source then cannot land unguarded. The all-time total is
// guarded by visibility instead: it must stay an unexported
// mem.PhysMem field.
func TestEpochAccountGuardsEvidence(t *testing.T) {
	ev := reflect.TypeOf(mem.Evidence{})
	for i := 0; i < ev.NumField(); i++ {
		if name := ev.Field(i).Name; !epochProtected(ev.Name(), name) {
			t.Errorf("epochaccount does not protect %s.%s", ev.Name(), name)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(mem.PageDescriptor{}), reflect.TypeOf(core.PageStat{})} {
		holds := 0
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type == ev {
				holds++
				if !epochProtected(typ.Name(), f.Name) {
					t.Errorf("epochaccount does not protect %s.%s", typ.Name(), f.Name)
				}
			}
		}
		if holds == 0 {
			t.Errorf("%s holds no %s field", typ.Name(), ev.Name())
		}
	}
	if f, ok := reflect.TypeOf(mem.PhysMem{}).FieldByName("trueTotal"); !ok || f.IsExported() {
		t.Error("mem.PhysMem has no unexported trueTotal column: the all-time total lost its guard")
	}
}
