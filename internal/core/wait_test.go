package core

import (
	gort "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// behindPage starts n behind calls to svc:slow() at load; each blocks
// until release is closed and its readyState-4 listener alerts
// "async done".
const behindPage = `<html><head><script type="text/xquery">
	declare namespace svc = "urn:svc";
	declare sequential function local:onResult($readyState, $result) {
		if ($readyState eq 4) then browser:alert("async done") else ();
	};
	for $i in 1 to %N%
	return on event "stateChanged" behind svc:slow() attach listener local:onResult
</script></head><body><input id="b"/></body></html>`

func loadBehind(t *testing.T, n int, release <-chan struct{}) *Host {
	t.Helper()
	slow := &runtime.Function{
		Name:    dom.QName{Space: "urn:svc", Local: "slow"},
		MinArgs: 0, MaxArgs: 0,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			<-release
			return xdm.Singleton(xdm.String("late")), nil
		},
	}
	page := strings.Replace(behindPage, "%N%", string(rune('0'+n)), 1)
	h, err := LoadPage(page, "http://example.com/",
		WithExtraFunctions(func(reg *runtime.Registry) { reg.Register(slow) }))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func countAlerts(h *Host, msg string) int {
	n := 0
	for _, a := range h.Alerts() {
		if a == msg {
			n++
		}
	}
	return n
}

// timeouts keeps the errors of errs that report a WaitIdle timeout.
func timeouts(errs []error) []error {
	var out []error
	for _, err := range errs {
		if strings.Contains(err.Error(), "timed out") {
			out = append(out, err)
		}
	}
	return out
}

func TestWaitIdleDeliversCallReleasedMidWait(t *testing.T) {
	release := make(chan struct{})
	h := loadBehind(t, 1, release)
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	const timeout = 10 * time.Second
	t0 := time.Now()
	if errs := h.WaitIdle(timeout); len(errs) > 0 {
		t.Fatalf("WaitIdle: %v", errs)
	}
	if took := time.Since(t0); took > timeout/2 {
		t.Errorf("WaitIdle took %s of its %s timeout after the call finished", took, timeout)
	}
	if got := countAlerts(h, "async done"); got != 1 {
		t.Errorf("completions delivered = %d, want 1 (alerts %v)", got, h.Alerts())
	}
}

func TestWaitIdleZeroNeverBlocks(t *testing.T) {
	idle, err := LoadPage(`<html><body/></html>`, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if errs := idle.WaitIdle(0); len(errs) != 0 {
		t.Errorf("idle host: WaitIdle(0) = %v, want no error", errs)
	}

	release := make(chan struct{})
	defer close(release)
	h := loadBehind(t, 1, release)
	errs := h.WaitIdle(0)
	if len(errs) != 1 || len(timeouts(errs)) != 1 {
		t.Errorf("blocked call: WaitIdle(0) = %v, want exactly one timed-out error", errs)
	}
}

// behindGoroutines counts the goroutines still inside a behind call.
func behindGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:gort.Stack(buf, true)]
	return strings.Count(string(buf), "core.(*hostHooks).AttachBehind.func")
}

func TestCompletionAfterTimedOutWaitIsDeliveredLater(t *testing.T) {
	// Three calls finish while nobody waits: the wake token holds one,
	// so the other two senders must not block.
	for name, deliver := range map[string]func(h *Host) []error{
		"Dispatch": func(h *Host) []error { return []error{h.Click("b")} },
		"WaitIdle": func(h *Host) []error { return h.WaitIdle(10 * time.Second) },
	} {
		t.Run(name, func(t *testing.T) {
			release := make(chan struct{})
			h := loadBehind(t, 3, release)
			if errs := h.WaitIdle(0); len(timeouts(errs)) != 1 {
				t.Fatalf("WaitIdle(0) with three blocked calls = %v, want one timed-out error", errs)
			}
			close(release)
			deadline := time.Now().Add(10 * time.Second)
			for n := behindGoroutines(); n > 0; n = behindGoroutines() {
				if time.Now().After(deadline) {
					t.Fatalf("%d behind goroutines did not exit", n)
				}
				time.Sleep(time.Millisecond)
			}
			if got := countAlerts(h, "async done"); got != 0 {
				t.Fatalf("completions delivered off the event loop: %d", got)
			}
			for _, err := range deliver(h) {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := countAlerts(h, "async done"); got != 3 {
				t.Errorf("completions delivered = %d, want 3", got)
			}
			if errs := h.WaitIdle(0); len(errs) != 0 {
				t.Errorf("WaitIdle(0) after delivery = %v, want no error", errs)
			}
		})
	}
}

func TestFailedReadyStateOneRetiresTheCall(t *testing.T) {
	// The listener fails on readyState 1, so the call never starts; it
	// must not stay outstanding and time the next wait out.
	page := `<html><head><script type="text/xquery">
		declare namespace svc = "urn:svc";
		declare sequential function local:onResult($readyState, $result) {
			browser:alert(1 div 0);
		};
		declare sequential function local:onClick($evt, $obj) {
			on event "stateChanged" behind svc:never() attach listener local:onResult;
		};
		on event "click" at //input[@id="b"] attach listener local:onClick
	</script></head><body><input id="b"/></body></html>`
	never := &runtime.Function{
		Name:    dom.QName{Space: "urn:svc", Local: "never"},
		MinArgs: 0, MaxArgs: 0,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			t.Error("the call started after readyState 1 failed")
			return nil, nil
		},
	}
	h, err := LoadPage(page, "http://example.com/",
		WithExtraFunctions(func(reg *runtime.Registry) { reg.Register(never) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Click("b"); err != nil {
		t.Fatal(err)
	}
	errs := h.WaitIdle(0)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "division by zero") {
		t.Errorf("WaitIdle(0) = %v, want the listener's error and no timeout", errs)
	}
}

func TestWaitIdleOnIdleHostAllocatesNothing(t *testing.T) {
	// Apps and the page-load harness wait on every visit; an idle wait
	// must not build a timer. Checked on a host that never made a
	// behind call and on one whose call has finished.
	never, err := LoadPage(`<html><body/></html>`, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	close(release)
	done := loadBehind(t, 1, release)
	if errs := done.WaitIdle(10 * time.Second); len(errs) != 0 {
		t.Fatal(errs)
	}
	for name, h := range map[string]*Host{"no behind call": never, "finished call": done} {
		for _, timeout := range []time.Duration{0, 2 * time.Second} {
			if n := testing.AllocsPerRun(100, func() { h.WaitIdle(timeout) }); n != 0 {
				t.Errorf("%s: WaitIdle(%s) allocates %.0f objects, want 0", name, timeout, n)
			}
		}
	}
}
