// Package fixture proves the engine's cross-package fact propagation:
// the taint sources live in tieredmem/testdata/taintsrc/ext (outside
// internal/, where the wallclock analyzer never looks), yet the
// findings land here, at the internal/ call sites that consume the
// laundered results.
package fixture

import (
	"tieredmem/internal/fault"
	"tieredmem/internal/policy"
	"tieredmem/internal/telemetry"
	"tieredmem/testdata/taintsrc/ext"
)

func launderedStamp(t *telemetry.Tracer) {
	t.EmitDaemonTick(ext.Stamp(), 1) // want `wall-clock-derived value flows into a telemetry call` `launders wall-clock time into internal/ code`
}

func launderedTwoHops(t *telemetry.Tracer) {
	t.EmitDaemonTick(ext.Indirect(), 1) // want `wall-clock-derived value flows into a telemetry call` `launders wall-clock time into internal/ code`
}

func launderedSeed() *fault.Plane {
	return fault.New(fault.Spec{}, ext.Roll()) // want `global-rand-derived value flows into a fault-package call` `launders global randomness into internal/ code`
}

// An explicitly instantiated callee is still a static call: the
// index expression around it must not hide its taint fact.
func launderedGeneric(t *telemetry.Tracer) {
	t.EmitDaemonTick(ext.Generic[int](), 1) // want `wall-clock-derived value flows into a telemetry call` `launders wall-clock time into internal/ code`
}

// A method of an instantiated generic type resolves to the method of
// the generic type, where its taint fact was exported.
func launderedGenericMethod(t *telemetry.Tracer) {
	t.EmitDaemonTick(ext.Box[int]{}.Stamp(), 1) // want `wall-clock-derived value flows into a telemetry call` `launders wall-clock time into internal/ code`
}

// Draw's source is itself an instantiated generic (rand.N[int64]), so
// the fact exists only if the taint pass resolves that callee.
func launderedGenericSeed() *fault.Plane {
	return fault.New(fault.Spec{}, ext.Draw()) // want `global-rand-derived value flows into a fault-package call` `launders global randomness into internal/ code`
}

// An admission budget set from the host clock would make every
// admit/defer/reject decision wall-clock-dependent — exactly the
// laundering path the analyzer must catch.
func launderedAdmissionBudget(mv *policy.Mover) {
	mv.AdmissionBudgetNS = ext.Stamp() // want `launders wall-clock time into internal/ code`
}

func pureOK(t *telemetry.Tracer) {
	t.EmitDaemonTick(ext.Pure(42), 1)
}
