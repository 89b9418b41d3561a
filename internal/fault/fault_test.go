package fault

import (
	"math"
	"strings"
	"testing"

	"tieredmem/internal/telemetry"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("ibs.drop=0.05, mem.enomem=0.2 ,abit.abort=1")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if got := spec.Rates[SiteIBSDrop]; got != 0.05 {
		t.Errorf("ibs.drop = %v, want 0.05", got)
	}
	if got := spec.Rates[SiteENOMEM]; got != 0.2 {
		t.Errorf("mem.enomem = %v, want 0.2", got)
	}
	if got := spec.Rates[SiteAbitAbort]; got != 1 {
		t.Errorf("abit.abort = %v, want 1", got)
	}
	if spec.Zero() {
		t.Error("non-empty spec reports Zero")
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseSpecAll(t *testing.T) {
	spec, err := ParseSpec("all=0.1,ibs.drop=0.5")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	for s := Site(0); s < numSites; s++ {
		want := 0.1
		if s == SiteIBSDrop {
			want = 0.5
		}
		if got := spec.Rates[s]; got != want {
			t.Errorf("%s = %v, want %v", s, got, want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"ibs.drop",         // no rate
		"ibs.drop=x",       // non-numeric
		"ibs.drop=1.5",     // out of range
		"ibs.drop=-0.1",    // out of range
		"ibs.drop=NaN",     // not a rate
		"all=NaN",          // not a rate
		"ibs.drop=+Inf",    // out of range
		"no.such.site=0.1", // unknown site
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestValidateRejectsNaN pins the NaN hole: a NaN rate fails every
// comparison, so a range check written as r < 0 || r > 1 passes it and
// the site then fires on every draw.
func TestValidateRejectsNaN(t *testing.T) {
	var spec Spec
	spec.Rates[SiteIBSDrop] = math.NaN()
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted a NaN rate")
	}
}

// FuzzParseSpec drives the -faults grammar with arbitrary text: every
// accepted spec holds rates in [0,1] only, passes Validate, and its
// canonical String form parses back to an equal spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"ibs.drop=NaN", "all=NaN", "all=1", ",,", "no.such.site=0.1",
		"mem.enomem=5e-324", "ibs.drop=0.05, mem.enomem=0.2 ,abit.abort=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			return
		}
		for site, r := range spec.Rates {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseSpec(%q) accepted %s rate %v outside [0,1]", text, Site(site), r)
			}
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec %q fails Validate: %v", text, err)
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("String() of accepted %q does not reparse: %q: %v", text, spec.String(), err)
		}
		if back != spec {
			t.Fatalf("round trip of %q changed the spec: %v -> %v", text, spec, back)
		}
	})
}

func TestParseSpecEmpty(t *testing.T) {
	spec, err := ParseSpec("  ")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if !spec.Zero() {
		t.Error("empty spec is not Zero")
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	spec, err := ParseSpec("ibs.drop=0.05,mem.pinned=0.25,hwpc.wrap=0.001")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	back, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if back != spec {
		t.Errorf("round trip changed spec: %v -> %v", spec, back)
	}
}

// drain pulls n decisions from one site and returns the fire pattern.
func drain(p *Plane, s Site, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if p.decide(s) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func TestSameSeedSameDecisions(t *testing.T) {
	spec, _ := ParseSpec("all=0.3")
	a := New(spec, 42)
	b := New(spec, 42)
	for s := Site(0); s < numSites; s++ {
		if pa, pb := drain(a, s, 200), drain(b, s, 200); pa != pb {
			t.Errorf("site %s: same seed diverged:\n%s\n%s", s, pa, pb)
		}
	}
	c := New(spec, 43)
	diff := false
	for s := Site(0); s < numSites; s++ {
		if drain(New(spec, 42), s, 200) != drain(c, s, 200) {
			diff = true
		}
	}
	if !diff {
		t.Error("seeds 42 and 43 produced identical decisions at every site")
	}
}

// TestSiteIndependence pins the per-site stream contract: draws at one
// site never shift another site's decision sequence.
func TestSiteIndependence(t *testing.T) {
	spec, _ := ParseSpec("all=0.3")
	pure := New(spec, 7)
	want := drain(pure, SitePinned, 100)

	mixed := New(spec, 7)
	drain(mixed, SiteIBSDrop, 1000) // heavy traffic on another site
	drain(mixed, SiteENOMEM, 333)
	if got := drain(mixed, SitePinned, 100); got != want {
		t.Errorf("pinned decisions shifted by other sites' draws:\nwant %s\ngot  %s", want, got)
	}
}

func TestZeroRateNeverFiresNeverDraws(t *testing.T) {
	p := New(Spec{}, 42)
	for s := Site(0); s < numSites; s++ {
		for i := 0; i < 100; i++ {
			if p.decide(s) {
				t.Fatalf("zero-rate site %s fired", s)
			}
		}
		if p.Draws(s) != 0 {
			t.Errorf("zero-rate site %s drew from its stream %d times", s, p.Draws(s))
		}
	}
	if p.Enabled() {
		t.Error("zero-spec plane reports Enabled")
	}
}

func TestNilPlaneSafe(t *testing.T) {
	var p *Plane
	if p.DropIBSSample() || p.OverflowIBSDrain() || p.WrapHWPC() ||
		p.FailAllocIn() || p.PinPage() || p.FailSplit() {
		t.Error("nil plane fired")
	}
	if _, abort := p.AbortAbitScan(); abort {
		t.Error("nil plane aborted a scan")
	}
	if p.Enabled() || p.TotalInjected() != 0 || p.Injected(SiteIBSDrop) != 0 {
		t.Error("nil plane reports activity")
	}
	p.SetTracer(telemetry.New()) // must not panic
}

func TestRatesRespected(t *testing.T) {
	spec, _ := ParseSpec("ibs.drop=1,mem.enomem=0")
	p := New(spec, 1)
	for i := 0; i < 50; i++ {
		if !p.DropIBSSample() {
			t.Fatal("rate-1 site did not fire")
		}
		if p.FailAllocIn() {
			t.Fatal("rate-0 site fired")
		}
	}
	// A mid-range rate fires roughly that often.
	spec2, _ := ParseSpec("mem.pinned=0.5")
	p2 := New(spec2, 9)
	fired := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if p2.PinPage() {
			fired++
		}
	}
	if fired < n/3 || fired > 2*n/3 {
		t.Errorf("rate-0.5 site fired %d/%d times", fired, n)
	}
}

func TestAbortFraction(t *testing.T) {
	spec, _ := ParseSpec("abit.abort=1")
	p := New(spec, 3)
	for i := 0; i < 100; i++ {
		frac, abort := p.AbortAbitScan()
		if !abort {
			t.Fatal("rate-1 abort did not fire")
		}
		if frac < 0 || frac >= 1 {
			t.Fatalf("abort fraction %v outside [0,1)", frac)
		}
	}
}

func TestCounters(t *testing.T) {
	spec, _ := ParseSpec("ibs.drop=1")
	p := New(spec, 5)
	tr := telemetry.New()
	p.SetTracer(tr)
	for i := 0; i < 7; i++ {
		p.DropIBSSample()
	}
	if got := tr.Registry().Counter("fault/ibs_drop").Value(); got != 7 {
		t.Errorf("fault/ibs_drop = %d, want 7", got)
	}
	if p.Injected(SiteIBSDrop) != 7 || p.TotalInjected() != 7 {
		t.Errorf("Injected = %d, Total = %d, want 7", p.Injected(SiteIBSDrop), p.TotalInjected())
	}
}
