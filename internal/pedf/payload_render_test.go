package pedf

import (
	"testing"
	"unsafe"

	"dfdbg/internal/filterc"
	"dfdbg/internal/mach"
	"dfdbg/internal/obs"
	"dfdbg/internal/sim"
)

// TestPopReusesPushRendering: a token's payload is rendered once, at its
// push, and its KPop event carries that same string; the pop renders
// afresh only when the push made none (payloads were off) or when
// ReplaceToken changed the payload since.
func TestPopReusesPushRendering(t *testing.T) {
	for _, mask := range []obs.Mask{obs.MaskDataflow, obs.MaskAll} {
		k := sim.NewKernel()
		rec := obs.NewRecorder(256)
		rec.SetMask(mask)
		rec.SetPayloads(true)
		k.SetObserver(rec)
		m := mach.New(k, mach.Config{})
		rt := NewRuntime(k, m, nil)
		u32 := filterc.Scalar(filterc.U32)
		l := &Link{
			ID:  1,
			Src: &Port{ActorName: "a", Name: "o", Dir: Out, Type: u32},
			Dst: &Port{ActorName: "b", Name: "i", Dir: In, Type: u32},
			Cap: 8, rt: rt,
			notEmpty: k.NewEvent("ne"),
			notFull:  k.NewEvent("nf"),
		}
		// last returns the payload of the newest event of kind kd.
		last := func(kd obs.Kind) string {
			evs := rec.Snapshot()
			for i := len(evs) - 1; i >= 0; i-- {
				if evs[i].Kind == kd {
					return evs[i].Val
				}
			}
			t.Errorf("no %v event", kd)
			return ""
		}
		same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
		k.Spawn("t", func(p *sim.Proc) {
			var dst filterc.Value
			push := func(v int64) {
				if err := l.push(p, nil, m.Host, filterc.Int(filterc.U32, v)); err != nil {
					t.Error(err)
				}
			}
			pop := func() string {
				if _, err := l.pop(p, nil, &dst); err != nil {
					t.Error(err)
				}
				return last(obs.KPop)
			}

			push(1234)
			pushed := last(obs.KPush)
			if got := pop(); got != "1234" || !same(got, pushed) {
				t.Errorf("mask %x: pop payload %q does not reuse the push's %q", mask, got, pushed)
			}

			push(500)
			pushed = last(obs.KPush)
			l.ReplaceToken(0, filterc.Int(filterc.U32, 777))
			if got := pop(); got != "777" || same(got, pushed) {
				t.Errorf("mask %x: pop after ReplaceToken = %q, want a fresh \"777\"", mask, got)
			}

			rec.SetPayloads(false)
			push(4321)
			if v := last(obs.KPush); v != "" {
				t.Errorf("mask %x: push rendered %q with payloads off", mask, v)
			}
			rec.SetPayloads(true)
			if got := pop(); got != "4321" {
				t.Errorf("mask %x: pop after SetPayloads(true) = %q, want \"4321\"", mask, got)
			}
		})
		if st, err := k.Run(); err != nil || st != sim.RunIdle {
			t.Fatalf("run = %v %v", st, err)
		}
	}
}
