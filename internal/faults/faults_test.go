package faults

import (
	"context"
	"errors"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseGrammar(t *testing.T) {
	in, err := Parse("stage:degree=panic,cache:read=ioerror:times=all,stage:eigen=slow:delay=5ms:after=2,*=error:p=0.5", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(in.rules))
	}
	r := in.rules[0].Rule
	if r.Point != "stage:degree" || r.Kind != KindPanic || r.Times != 1 {
		t.Fatalf("rule 0 = %+v", r)
	}
	r = in.rules[1].Rule
	if r.Kind != KindIOError || r.Times != -1 {
		t.Fatalf("rule 1 = %+v", r)
	}
	r = in.rules[2].Rule
	if r.Kind != KindSlow || r.Delay != 5*time.Millisecond || r.After != 2 {
		t.Fatalf("rule 2 = %+v", r)
	}
	r = in.rules[3].Rule
	if r.Point != "*" || r.P != 0.5 {
		t.Fatalf("rule 3 = %+v", r)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"degree=panic",           // bare point
		"stage:degree",           // no kind
		"stage:degree=explode",   // unknown kind
		"stage:=error",           // empty stage name
		"cache:mmap=error",       // unknown cache op
		"stage:degree=error:n=3", // unknown option
		"stage:degree=error:times=0",
		"stage:degree=error:p=2",
		"stage:degree=slow:delay=x",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
	in, err := Parse("", 1)
	if err != nil || len(in.rules) != 0 {
		t.Fatalf("empty spec: %v, %d rules", err, len(in.rules))
	}
}

// TestFromFlag: the flag wins over $ELITES_FAULTS, the variable is the
// fallback, neither yields no injector, and a bad spec names the flag.
func TestFromFlag(t *testing.T) {
	t.Setenv("ELITES_FAULTS", "stage:degree=error")
	in, err := FromFlag("test", "stage:eigen=panic", 1)
	if err != nil || len(in.rules) != 1 || in.rules[0].Point != "stage:eigen" {
		t.Fatalf("flag spec: %v %v", in, err)
	}
	if in, err = FromFlag("test", "", 1); err != nil || len(in.rules) != 1 || in.rules[0].Point != "stage:degree" {
		t.Fatalf("env fallback: %v %v", in, err)
	}
	t.Setenv("ELITES_FAULTS", "")
	if in, err = FromFlag("test", "", 1); in != nil || err != nil {
		t.Fatalf("no spec: %v %v, want nil injector", in, err)
	}
	if _, err = FromFlag("test", "bogus", 1); err == nil || !strings.HasPrefix(err.Error(), "-faults: ") {
		t.Fatalf("bad spec error %v, want it to name -faults", err)
	}
}

func TestErrorKindWrapsSentinel(t *testing.T) {
	in := New(1, Rule{Point: "stage:degree", Kind: KindError})
	err := in.Stage(context.Background(), "degree")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Times defaults to once: the fault clears after firing.
	if err := in.Stage(context.Background(), "degree"); err != nil {
		t.Fatalf("second hit = %v, want nil", err)
	}
	if got := in.Fired("stage:degree"); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestPanicKindPanics(t *testing.T) {
	in := New(1, Rule{Point: "stage:degree", Kind: KindPanic})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic")
		}
		// The injector's lock must be released before the panic unwinds.
		if err := in.Stage(context.Background(), "degree"); err != nil {
			t.Fatalf("post-panic hit = %v, want nil (rule exhausted)", err)
		}
	}()
	in.Stage(context.Background(), "degree")
}

func TestCancelKindInvokesBoundCancel(t *testing.T) {
	in := New(1, Rule{Point: "stage:eigen", Kind: KindCancel})
	cancelled := false
	in.BindCancel(func() { cancelled = true })
	err := in.Stage(context.Background(), "eigen")
	if !errors.Is(err, ErrInjected) || !cancelled {
		t.Fatalf("err = %v, cancelled = %v", err, cancelled)
	}
}

func TestENOSPCKind(t *testing.T) {
	in := New(1, Rule{Point: "cache:store", Kind: KindENOSPC})
	err := in.Cache("store")
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ENOSPC wrapping ErrInjected", err)
	}
}

func TestNetKindsWrapSentinels(t *testing.T) {
	in, err := Parse("net:w1=drop,net:*=5xx", 1)
	if err != nil {
		t.Fatal(err)
	}
	// First hit on w1: the drop rule fires (declaration order).
	if err := in.Net(context.Background(), "w1"); !errors.Is(err, ErrDropped) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrDropped wrapping ErrInjected", err)
	}
	// w2 never matches the drop rule; the wildcard 5xx rule fires.
	if err := in.Net(context.Background(), "w2"); !errors.Is(err, ErrHTTP5xx) {
		t.Fatalf("err = %v, want ErrHTTP5xx", err)
	}
	// Both rules exhausted (Times defaults to once).
	if err := in.Net(context.Background(), "w1"); err != nil {
		t.Fatalf("exhausted rules still fired: %v", err)
	}
	if got := in.Fired("net:w1"); got != 1 {
		t.Fatalf("Fired(net:w1) = %d, want 1", got)
	}
}

func TestNetPointValidation(t *testing.T) {
	if _, err := Parse("net:=drop", 1); err == nil {
		t.Fatal("empty worker name accepted")
	}
	if _, err := Parse("net:127.0.0.1:9001=slow:delay=2ms", 1); err != nil {
		t.Fatalf("host:port point rejected: %v", err)
	}
}

func TestSlowKindDelaysAndProceeds(t *testing.T) {
	in := New(1, Rule{Point: "stage:degree", Kind: KindSlow, Delay: 10 * time.Millisecond, Times: -1})
	start := time.Now()
	if err := in.Stage(context.Background(), "degree"); err != nil {
		t.Fatalf("slow hook errored: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("returned after %v, want >= 10ms", d)
	}
}

func TestSlowKindHonorsContext(t *testing.T) {
	in := New(1, Rule{Point: "stage:degree", Kind: KindSlow, Delay: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := in.Stage(ctx, "degree")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestAfterAndTimesWindow(t *testing.T) {
	in := New(1, Rule{Point: "cache:read", Kind: KindIOError, After: 2, Times: 2})
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, in.Cache("read") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: fired=%v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestWildcardMatching(t *testing.T) {
	in := New(1, Rule{Point: "stage:*", Kind: KindError, Times: -1})
	if err := in.Stage(context.Background(), "degree"); err == nil {
		t.Fatal("stage:* did not match stage:degree")
	}
	if err := in.Cache("read"); err != nil {
		t.Fatal("stage:* matched cache:read")
	}
}

func TestProbabilityGateIsSeedDeterministic(t *testing.T) {
	fire := func(seed uint64) string {
		in := New(seed, Rule{Point: "stage:x", Kind: KindError, Times: -1, P: 0.5})
		var b strings.Builder
		for i := 0; i < 32; i++ {
			if in.Stage(context.Background(), "x") != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	a, b := fire(42), fire(42)
	if a != b {
		t.Fatalf("same seed diverged: %s vs %s", a, b)
	}
	if !strings.Contains(a, "0") || !strings.Contains(a, "1") {
		t.Fatalf("p=0.5 produced a constant sequence: %s", a)
	}
	if c := fire(43); c == a {
		t.Fatalf("different seeds produced identical sequences: %s", c)
	}
}
