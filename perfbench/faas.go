package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"ufork/internal/apps/faas"
	"ufork/internal/bench/ycsb"
	"ufork/internal/kernel"
	"ufork/internal/minipy"
	"ufork/internal/model"
	"ufork/internal/sim"
)

// faasShape is the FaaS workload's configuration.
type faasShape struct {
	workerCores int
	rate        float64
	ops         int
}

// faasLoops are the float_operation loop counts requests ask for; a
// request's key picks one. They are a quarter of Fig 6's loop count, so a
// run serves four times the requests in the same host time and the fork
// is a larger share of each request.
var faasLoops = []int{250, 300, 350, 400}

// replyBytes is one reply on the results pipe: request ID, result bits.
const replyBytes = 16

// runFaaS boots the Fig 6 zygote, warms the runtime, computes the
// reference result of every loop count in the parent, then forks one
// child per arrival to run float_operation and write its reply.
func runFaaS(s faasShape, o opts) (*rep, error) {
	ops := o.size(s.ops)
	arr := streams(o.seed, 1, ops, s.rate, ycsb.MixC, len(faasLoops))[0]

	r := &rep{}
	if o.traced {
		r.spans = newSpanLog()
	}
	c0 := processCPU()
	id := r.spans.begin("kernel.New", -1, -1, 0)
	k := boot(model.UFork(s.workerCores+1), 1<<17, o.traced)
	r.spans.end(id, 0)
	pb := newProbe(r, k, c0)

	err := runRoot(k, faas.ZygoteSpec(k.Machine.StaticHeapPages/16), func(p *kernel.Proc) error {
		id := r.spans.begin("faas.Warm", -1, -1, p.Now())
		prog, rt, err := faas.Warm(p)
		if err != nil {
			return err
		}
		fn, ok := prog.FuncIndex("float_operation")
		if !ok {
			return fmt.Errorf("float_operation missing")
		}
		ref := make([]float64, len(faasLoops))
		for i, n := range faasLoops {
			if ref[i], err = rt.CallIndex(fn, float64(n)); err != nil {
				return err
			}
		}
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			return err
		}
		r.spans.end(id, p.Now())

		issued := make([]sim.Time, len(arr))
		finished := make([]sim.Time, len(arr))
		roots := make([]int32, len(arr))
		inflight := map[kernel.PID]int{}
		reply := make([]byte, replyBytes)
		// reapOne collects one exited child and one reply, and checks the
		// reply against the parent's reference result.
		reapOne := func() error {
			wid := r.spans.begin("k.Wait", -1, -1, p.Now())
			pid, status, err := k.Wait(p)
			r.spans.end(wid, p.Now())
			if err != nil {
				return fmt.Errorf("wait: %w", err)
			}
			i, ok := inflight[pid]
			if !ok {
				return fmt.Errorf("reaped unknown child %d", pid)
			}
			delete(inflight, pid)
			a := arr[i]
			r.spans.end(roots[i], p.Now())
			if status != 0 {
				r.done(a, issued[i], 0, fmt.Errorf("child exited with status %d", status))
				return nil
			}
			if _, err := k.Read(p, rfd, reply); err != nil {
				return fmt.Errorf("read reply: %w", err)
			}
			j := binary.LittleEndian.Uint64(reply)
			if j >= uint64(len(arr)) {
				r.done(a, issued[i], finished[i], fmt.Errorf("reply names unknown request %d", j))
				return nil
			}
			got := math.Float64frombits(binary.LittleEndian.Uint64(reply[8:]))
			if o.sabotage == sabotageReply && arr[j].ID%5 == 2 {
				got = math.Nextafter(got, 0)
			}
			// Replies arrive in write order, reaps in exit order: check the
			// reply against the request it names.
			var bad error
			if want := ref[arr[j].Key]; got != want {
				bad = fmt.Errorf("request %d replied %v, want %v", arr[j].ID, got, want)
			}
			r.done(a, issued[i], finished[i], bad)
			return nil
		}
		// reapExited collects every child that has already exited. The
		// zygote syncs first, so which children count as exited depends
		// only on virtual time.
		reapExited := func() error {
			p.Task.Sync()
			exited := 0
			for pid := range inflight {
				if c, ok := k.FindProc(pid); !ok || c.Exited() {
					exited++
				}
			}
			for ; exited > 0; exited-- {
				if err := reapOne(); err != nil {
					return err
				}
			}
			return nil
		}

		pb.begin(p.Now())
		for i, a := range arr {
			idleUntil(p.Task, r.start+a.Due)
			if err := reapExited(); err != nil {
				return err
			}
			issued[i] = p.Now()
			roots[i] = r.spans.begin("faas.request", a.ID, -1, issued[i])
			i, n := i, float64(faasLoops[a.Key])
			pid, err := pb.fork(p, a.ID, roots[i], func(c *kernel.Proc) {
				crt, err := minipy.Attach(c)
				if err != nil {
					k.Exit(c, 1)
				}
				cid := r.spans.begin("minipy.CallIndex", a.ID, roots[i], c.Now())
				v, err := crt.CallIndex(fn, n)
				r.spans.end(cid, c.Now())
				if err != nil {
					k.Exit(c, 1)
				}
				var out [replyBytes]byte
				binary.LittleEndian.PutUint64(out[:], uint64(i))
				binary.LittleEndian.PutUint64(out[8:], math.Float64bits(v))
				if _, err := k.Write(c, wfd, out[:]); err != nil {
					k.Exit(c, 1)
				}
				finished[i] = c.Now()
				k.Exit(c, 0)
			})
			if err != nil {
				r.done(a, issued[i], 0, fmt.Errorf("fork: %w", err))
				continue
			}
			inflight[pid] = i
		}
		for len(inflight) > 0 {
			if err := reapOne(); err != nil {
				return err
			}
		}
		pb.finish(p.Now())
		return nil
	})
	return r, err
}
