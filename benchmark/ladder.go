package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perpetualws/internal/clbft"
	"perpetualws/internal/perpetual"
)

// The ladder is the layer account by subtraction of real runs: the
// same load (window, batch cap, message size, group size) is put
// through agreement alone, then through the perpetual layer (which adds
// wire, MACs, transport, voter gates and reply certification), and the
// workload itself adds soap, wsengine, core and the application. Each
// rung reports process CPU per completed operation, so
//
//	clbft.cpu_us_per_op <= perpetual.cpu_us_per_req <= cpu_us_per_req
//
// and the differences are what each layer group costs.

const rungWarmup = 200

// clbftRung joins four clbft replicas by direct calls, with no codec and
// no MAC, and drives Submit -> deliver at the primary in a closed loop.
func clbftRung(window int, op []byte, d time.Duration) (cpuUs float64, err error) {
	opts := serviceOpts()
	replicas := make([]*clbft.Replica, groupSize)
	var delivered atomic.Int64
	wake := make(chan struct{}, 1)
	for i := range replicas {
		cfg := clbft.Config{
			ID: i, N: groupSize,
			CheckpointInterval: opts.CheckpointInterval,
			ViewChangeTimeout:  opts.ViewChangeTimeout,
			MaxBatch:           opts.MaxBatch,
			Tentative:          true,
		}
		deliver := func(clbft.Delivery) {}
		if i == 0 {
			deliver = func(clbft.Delivery) {
				delivered.Add(1)
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		}
		send := clbft.TransportFunc(func(to int, m *clbft.Message) { replicas[to].Receive(i, m) })
		if replicas[i], err = clbft.New(cfg, send, deliver); err != nil {
			return 0, fmt.Errorf("clbft rung: %w", err)
		}
	}
	for _, r := range replicas {
		r.Start()
	}
	stop := func() {
		for _, r := range replicas {
			r.Stop()
		}
	}
	defer stop()

	submitted := int64(0)
	run := func(more func() bool) error {
		watchdog := time.NewTimer(2*d + 2*time.Second)
		defer watchdog.Stop()
		for {
			for submitted-delivered.Load() < int64(window) && more() {
				replicas[0].Submit("op-"+strconv.FormatInt(submitted, 10), op)
				submitted++
			}
			if delivered.Load() == submitted && !more() {
				return nil
			}
			select {
			case <-wake:
			case <-watchdog.C:
				return errWatchdog
			}
		}
	}
	if err := run(func() bool { return submitted < rungWarmup }); err != nil {
		return 0, fmt.Errorf("clbft rung warm-up: %w", err)
	}
	cpu0, n0 := processCPU(), delivered.Load()
	until := time.Now().Add(d)
	if err := run(func() bool { return time.Now().Before(until) }); err != nil {
		return 0, fmt.Errorf("clbft rung: %w", err)
	}
	n := delivered.Load() - n0
	if n == 0 {
		return 0, errors.New("clbft rung: nothing delivered")
	}
	for _, r := range replicas {
		if r.ViewChanges() > 0 {
			return 0, errors.New("clbft rung: view change")
		}
	}
	return float64((processCPU() - cpu0).Nanoseconds()) / 1e3 / float64(n), nil
}

// perpetualRung deploys client n=1 -> target n=4 at the perpetual layer
// over the workload's transport, with echo executors, and drives raw
// payloads of the workload's envelope sizes through Driver.Do: writes
// with NoWait in the workload's window, or (when the workload declares
// reads) two synchronous callers at the workload's read share.
func perpetualRung(w *workload, reqLen, replyLen int, seed int64, d time.Duration) (cpuUs, rps float64, err error) {
	dep := perpetual.NewDeploymentOver([]byte("benchmark-rung"), w.transport,
		perpetual.ServiceInfo{Name: "client", N: 1},
		perpetual.ServiceInfo{Name: "target", N: groupSize})
	dep.Configure("client", serviceOpts())
	dep.Configure("target", serviceOpts())
	if err := dep.Build(); err != nil {
		return 0, 0, fmt.Errorf("perpetual rung: %w", err)
	}
	reply := make([]byte, replyLen)
	var execs sync.WaitGroup
	for _, r := range dep.Replicas("target") {
		r.SetReadExecutor(func([]byte) ([]byte, error) { return reply, nil })
		drv := r.Driver()
		execs.Add(1)
		go func() {
			defer execs.Done()
			for {
				req, err := drv.NextRequest()
				if err != nil {
					return
				}
				if drv.Reply(req, reply) != nil {
					return
				}
			}
		}()
	}
	dep.Start()
	stop := func() {
		dep.Stop()
		execs.Wait()
	}
	defer stop()

	client := dep.Driver("client", 0)
	payload := make([]byte, reqLen)
	var completed atomic.Int64
	var run func(more func() bool) error
	if w.readShare > 0 {
		run = func(more func() bool) error {
			var errs [2]error
			var wg sync.WaitGroup
			for g := range errs {
				rng := rand.New(rand.NewSource(seed + int64(g)))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for more() {
						res, err := client.Do(context.Background(), perpetual.Request{
							Target: "target", Payload: payload, Read: rng.Float64() < w.readShare,
						})
						if err != nil || res.Aborted {
							errs[g] = fmt.Errorf("call failed: aborted=%v err=%v", res.Aborted, err)
							return
						}
						completed.Add(1)
					}
				}()
			}
			wg.Wait()
			return errors.Join(errs[:]...)
		}
	} else {
		run = func(more func() bool) error {
			outstanding := 0
			issue := func() error {
				_, err := client.Do(context.Background(), perpetual.Request{Target: "target", Payload: payload, NoWait: true})
				outstanding++
				return err
			}
			for outstanding < w.window && more() {
				if err := issue(); err != nil {
					return err
				}
			}
			for outstanding > 0 {
				r, err := client.NextReply()
				if err != nil {
					return err
				}
				if r.Aborted {
					return errors.New("call aborted")
				}
				outstanding--
				completed.Add(1)
				if more() {
					if err := issue(); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}

	var warm atomic.Int64
	if err := guard(warmupNominal, dep.Stop, func() error {
		return run(func() bool { return warm.Add(1) <= rungWarmup })
	}); err != nil {
		return 0, 0, fmt.Errorf("perpetual rung warm-up: %w", err)
	}
	cpu0, n0, t0 := processCPU(), completed.Load(), time.Now()
	until := t0.Add(d)
	if err := guard(d, dep.Stop, func() error {
		return run(func() bool { return time.Now().Before(until) })
	}); err != nil {
		return 0, 0, fmt.Errorf("perpetual rung: %w", err)
	}
	n := completed.Load() - n0
	if n == 0 {
		return 0, 0, errors.New("perpetual rung: nothing completed")
	}
	for _, r := range dep.Replicas("target") {
		if r.VoterView() > 0 {
			return 0, 0, errors.New("perpetual rung: view change")
		}
	}
	return float64((processCPU() - cpu0).Nanoseconds()) / 1e3 / float64(n), float64(n) / time.Since(t0).Seconds(), nil
}
