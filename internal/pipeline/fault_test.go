package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestPanicRecoveredAsStagePanicError asserts the containment contract: a
// panicking stage becomes a typed error with a captured stack, its
// dependents are skipped, independent stages still run, and the process
// (the test binary) survives.
func TestPanicRecoveredAsStagePanicError(t *testing.T) {
	ranC := false
	stages := []Stage{
		{Name: "a", Run: func() error { panic("boom") }},
		{Name: "b", Deps: []string{"a"}, Run: func() error { return nil }},
		{Name: "c", Run: func() error { ranC = true; return nil }},
	}
	timings, err := RunContext(t.Context(), stages, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("no error")
	}
	var pe *StagePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want StagePanicError", err)
	}
	if pe.Stage != "a" || pe.Value != "boom" {
		t.Fatalf("panic error = %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "fault_test.go") {
		t.Fatalf("stack does not point at the panic site:\n%s", pe.Stack)
	}
	if !errors.As(timings[0].Err, &pe) {
		t.Fatalf("timing err = %v, want StagePanicError", timings[0].Err)
	}
	if !timings[1].Skipped || !errors.Is(timings[1].Err, ErrDependencySkipped) {
		t.Fatalf("dependent not skipped: %+v", timings[1])
	}
	if !ranC || timings[2].Err != nil {
		t.Fatalf("independent stage affected: ran=%v err=%v", ranC, timings[2].Err)
	}
}

// TestPanicInDecodeFallsBackToRun asserts corruption containment one level
// deeper: a cache payload whose Decode panics is a miss, not a failure.
func TestPanicInDecodeFallsBackToRun(t *testing.T) {
	c := &faultMapCache{data: map[string][]byte{"k": []byte("payload")}}
	ran := false
	stages := []Stage{{
		Name: "a", CacheKey: "k",
		Run:    func() error { ran = true; return nil },
		Encode: func() ([]byte, error) { return []byte("fresh"), nil },
		Decode: func([]byte) error { panic("corrupt beyond belief") },
	}}
	timings, err := RunContext(t.Context(), stages, Options{Cache: c})
	if err != nil || !ran {
		t.Fatalf("err=%v ran=%v, want clean fallback run", err, ran)
	}
	if timings[0].CacheHit {
		t.Fatal("panicking decode counted as a hit")
	}
}

func TestRetryPolicyRetriesTransientErrors(t *testing.T) {
	attempts := 0
	stages := []Stage{{
		Name: "flaky",
		Run: func() error {
			attempts++
			if attempts < 3 {
				return fmt.Errorf("transient %d", attempts)
			}
			return nil
		},
	}}
	timings, err := RunContext(t.Context(), stages, Options{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 || timings[0].Retries != 2 {
		t.Fatalf("attempts=%d retries=%d, want 3 attempts / 2 retries", attempts, timings[0].Retries)
	}
}

func TestRetryPolicyGivesUp(t *testing.T) {
	attempts := 0
	stages := []Stage{{
		Name: "doomed",
		Run:  func() error { attempts++; return errors.New("persistent") },
	}}
	timings, err := RunContext(t.Context(), stages, Options{Retries: 2})
	if err == nil || attempts != 3 {
		t.Fatalf("err=%v attempts=%d, want failure after 3 attempts", err, attempts)
	}
	if timings[0].Retries != 2 {
		t.Fatalf("retries = %d, want 2", timings[0].Retries)
	}
}

func TestRetryNeverRetriesPanics(t *testing.T) {
	attempts := 0
	stages := []Stage{{
		Name: "panicky",
		Run:  func() error { attempts++; panic("once is enough") },
	}}
	timings, err := RunContext(t.Context(), stages, Options{Retries: 5})
	var pe *StagePanicError
	if !errors.As(err, &pe) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d, want one panicking attempt", err, attempts)
	}
	if timings[0].Retries != 0 {
		t.Fatalf("retries = %d, want 0", timings[0].Retries)
	}
}

func TestInterceptErrorFailsStage(t *testing.T) {
	sentinel := errors.New("injected")
	ran := false
	stages := []Stage{
		{Name: "a", Run: func() error { ran = true; return nil }},
		{Name: "b", Run: func() error { return nil }},
	}
	timings, err := RunContext(t.Context(), stages, Options{
		Intercept: func(_ context.Context, stage string) error {
			if stage == "a" {
				return sentinel
			}
			return nil
		},
	})
	if !errors.Is(err, sentinel) || ran {
		t.Fatalf("err=%v ran=%v, want interception before Run", err, ran)
	}
	if timings[1].Err != nil {
		t.Fatalf("uninjected stage failed: %v", timings[1].Err)
	}
}

// TestPanicUnderConcurrencyKeepsSchedulerAlive floods a wide graph with
// panicking stages and asserts the run terminates with every timing
// accounted for (no stranded workers, no deadlock).
func TestPanicUnderConcurrencyKeepsSchedulerAlive(t *testing.T) {
	var stages []Stage
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("s%d", i)
		if i%3 == 0 {
			stages = append(stages, Stage{Name: name, Run: func() error { panic(name) }})
		} else {
			stages = append(stages, Stage{Name: name, Run: func() error { return nil }})
		}
	}
	timings, err := RunContext(t.Context(), stages, Options{Parallelism: 8})
	if err == nil {
		t.Fatal("no error")
	}
	for i, tm := range timings {
		if tm.Skipped {
			t.Fatalf("stage %d skipped in a dependency-free graph", i)
		}
		if i%3 == 0 {
			var pe *StagePanicError
			if !errors.As(tm.Err, &pe) {
				t.Fatalf("stage %d: err = %v, want StagePanicError", i, tm.Err)
			}
		} else if tm.Err != nil {
			t.Fatalf("stage %d failed: %v", i, tm.Err)
		}
	}
}

// faultMapCache is the trivial Cacher used by the fault tests.
type faultMapCache struct{ data map[string][]byte }

func (m *faultMapCache) Get(key string) ([]byte, bool) { d, ok := m.data[key]; return d, ok }
func (m *faultMapCache) Put(key string, data []byte)   { m.data[key] = data }
