package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"perpetualws/internal/core"
	"perpetualws/internal/wsengine"
)

// The traced pass records spans from outside the program: a
// MessageHandler wrapper on the client's handler, and one installed
// into each service replica's AppContext before the real application
// runs. One request's spans share a trace id, the wsa:MessageID the
// client's handler assigned, which the target's executors see on the
// request and the client sees again as wsa:RelatesTo. Tracing inside
// the program is a later issue.
//
// A request's spans form a chain with no gaps, through the target
// replica whose executor received the request first:
//
//	send     the client's Send call: soap + wsengine + driver + MAC + enqueue
//	agree    Send returned -> that replica's ReceiveRequest returned:
//	         transport + voter gates + CLBFT + the handler's queue
//	execute  ReceiveRequest returned -> SendReply called, minus inner calls
//	inner_call  the executor's SendReceive to the next tier (payment_3tier)
//	reply    the SendReply call
//	certify  SendReply returned -> the client's ReceiveReply returned: the
//	         other replicas catching up, reply shares, bundle, verification
//
// A declared read served by the fast path never reaches an executor, so
// it has only send and certify (Send returned -> reply received: the
// multicast, speculative execution and f+1 matching endorsements).

type tracer struct {
	mu     sync.Mutex
	client map[string]*clientTimes
	server map[string][]*serverTimes // by the request's MessageID, one per replica
}

type clientTimes struct{ sendStart, sendEnd, replyAt time.Time }

type serverTimes struct {
	service                    string
	replica                    int
	recv, replyStart, replyEnd time.Time
	inner                      []innerCall
}

type innerCall struct {
	key        string // MessageID the executor's handler gave the inner request
	start, end time.Time
}

func newTracer() *tracer {
	return &tracer{client: make(map[string]*clientTimes), server: make(map[string][]*serverTimes)}
}

// clientTap records the client side of every request.
type clientTap struct {
	core.MessageHandler
	t *tracer
}

func (t *tracer) wrapClient(h core.MessageHandler) core.MessageHandler {
	return &clientTap{MessageHandler: h, t: t}
}

func (c *clientTap) Send(mc *wsengine.MessageContext) error {
	start := time.Now()
	err := c.MessageHandler.Send(mc)
	end := time.Now()
	if err == nil {
		c.t.mu.Lock()
		c.t.client[mc.Envelope.Header.MessageID] = &clientTimes{sendStart: start, sendEnd: end}
		c.t.mu.Unlock()
	}
	return err
}

func (c *clientTap) gotReply(mc *wsengine.MessageContext, err error) {
	if err != nil {
		return
	}
	now := time.Now()
	c.t.mu.Lock()
	if ct := c.t.client[mc.Envelope.Header.RelatesTo]; ct != nil {
		ct.replyAt = now
	}
	c.t.mu.Unlock()
}

func (c *clientTap) ReceiveReply() (*wsengine.MessageContext, error) {
	mc, err := c.MessageHandler.ReceiveReply()
	c.gotReply(mc, err)
	return mc, err
}

func (c *clientTap) ReceiveReplyFor(req *wsengine.MessageContext) (*wsengine.MessageContext, error) {
	mc, err := c.MessageHandler.ReceiveReplyFor(req)
	c.gotReply(mc, err)
	return mc, err
}

func (c *clientTap) SendReceive(req *wsengine.MessageContext) (*wsengine.MessageContext, error) {
	if err := c.Send(req); err != nil {
		return nil, err
	}
	return c.ReceiveReplyFor(req)
}

// serverTap records one replica's executor. The applications here are
// single-threaded, so cur is the request being executed.
type serverTap struct {
	core.MessageHandler
	t       *tracer
	service string
	replica int
	open    map[string]*serverTimes
	cur     *serverTimes
}

func (t *tracer) wrapApp(service string, app core.Application) core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		ctx.MessageHandler = &serverTap{
			MessageHandler: ctx.MessageHandler, t: t,
			service: service, replica: ctx.ReplicaIndex,
			open: make(map[string]*serverTimes),
		}
		app.Run(ctx)
	})
}

func (s *serverTap) ReceiveRequest() (*wsengine.MessageContext, error) {
	mc, err := s.MessageHandler.ReceiveRequest()
	if err != nil {
		return mc, err
	}
	st := &serverTimes{service: s.service, replica: s.replica, recv: time.Now()}
	key := mc.Envelope.Header.MessageID
	s.open[key], s.cur = st, st
	s.t.mu.Lock()
	s.t.server[key] = append(s.t.server[key], st)
	s.t.mu.Unlock()
	return mc, nil
}

func (s *serverTap) SendReply(reply, request *wsengine.MessageContext) error {
	start := time.Now()
	err := s.MessageHandler.SendReply(reply, request)
	end := time.Now()
	key := request.Envelope.Header.MessageID
	if st := s.open[key]; st != nil && err == nil {
		s.t.mu.Lock()
		st.replyStart, st.replyEnd = start, end
		s.t.mu.Unlock()
		delete(s.open, key)
	}
	return err
}

func (s *serverTap) SendReceive(req *wsengine.MessageContext) (*wsengine.MessageContext, error) {
	start := time.Now()
	mc, err := s.MessageHandler.SendReceive(req)
	end := time.Now()
	if s.cur != nil && err == nil {
		s.t.mu.Lock()
		s.cur.inner = append(s.cur.inner, innerCall{key: req.Envelope.Header.MessageID, start: start, end: end})
		s.t.mu.Unlock()
	}
	return mc, err
}

// span is one record of the trace file.
type span struct {
	Trace   string  `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: the trace's root
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Service string  `json:"service"`
	Replica int     `json:"replica"`
	StartUs float64 `json:"start_us"` // since the first span of the file
	EndUs   float64 `json:"end_us"`
}

// selfTime is a span's duration minus the part of it its children
// cover (children may overlap each other and stick out of the parent).
func selfTime(start, end time.Time, children [][2]time.Time) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i][0].Before(children[j][0]) })
	covered := time.Duration(0)
	mark := start
	for _, c := range children {
		from, to := c[0], c[1]
		if from.Before(mark) {
			from = mark
		}
		if to.After(end) {
			to = end
		}
		if to.After(from) {
			covered += to.Sub(from)
			mark = to
		}
	}
	return end.Sub(start) - covered
}

// first picks, among the replicas of service that executed and replied
// to key, the one whose ReceiveRequest returned first.
func (t *tracer) first(key, service string) *serverTimes {
	var best *serverTimes
	for _, st := range t.server[key] {
		if st.service == service && !st.replyEnd.IsZero() && (best == nil || st.recv.Before(best.recv)) {
			best = st
		}
	}
	return best
}

// chainNames are the spans of a request's chain, in order.
var chainNames = [...]string{"send", "agree", "execute", "inner_call", "reply", "certify"}

// analyse builds the spans of every complete trace and the per-request
// duration of each chain span (0 where a request has no such span).
// Call it only after the deployment has stopped.
func (t *tracer) analyse(w *workload) (spans []span, chain map[string][]time.Duration, total []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.client))
	for key, ct := range t.client {
		if !ct.replyAt.IsZero() {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return t.client[keys[i]].sendStart.Before(t.client[keys[j]].sendStart) })
	if len(keys) == 0 {
		return nil, nil, nil
	}
	epoch := t.client[keys[0]].sendStart
	us := func(at time.Time) float64 { return float64(at.Sub(epoch).Nanoseconds()) / 1e3 }
	chain = make(map[string][]time.Duration)
	id := 0
	for _, key := range keys {
		add := func(parent int, name, layer, service string, replica int, from, to time.Time) int {
			id++
			spans = append(spans, span{Trace: key, ID: id, Parent: parent, Name: name, Layer: layer,
				Service: service, Replica: replica, StartUs: us(from), EndUs: us(to)})
			return id
		}
		// hop emits the target-side part of a chain under parent and
		// returns the durations of its agree/execute/inner/reply parts.
		var hop func(parent int, key, service string, from time.Time) (*serverTimes, [4]time.Duration)
		hop = func(parent int, key, service string, from time.Time) (*serverTimes, [4]time.Duration) {
			st := t.first(key, service)
			if st == nil {
				return nil, [4]time.Duration{}
			}
			add(parent, "agree", "clbft", service, st.replica, from, st.recv)
			exec := add(parent, "execute", "app", service, st.replica, st.recv, st.replyStart)
			var kids [][2]time.Time
			var inner time.Duration
			for _, ic := range st.inner {
				call := add(exec, "inner_call", "core", service, st.replica, ic.start, ic.end)
				kids = append(kids, [2]time.Time{ic.start, ic.end})
				inner += ic.end.Sub(ic.start)
				if next := w.nextTier[service]; next != "" {
					hop(call, ic.key, next, ic.start)
				}
			}
			add(parent, "reply", "core", service, st.replica, st.replyStart, st.replyEnd)
			return st, [4]time.Duration{st.recv.Sub(from), selfTime(st.recv, st.replyStart, kids), inner, st.replyEnd.Sub(st.replyStart)}
		}
		ct := t.client[key]
		root := add(0, "request", "client", "client", 0, ct.sendStart, ct.replyAt)
		add(root, "send", "core", "client", 0, ct.sendStart, ct.sendEnd)
		st, d := hop(root, key, w.entry, ct.sendEnd)
		certifyFrom := ct.sendEnd
		if st != nil {
			certifyFrom = st.replyEnd
		}
		add(root, "certify", "perpetual", "client", 0, certifyFrom, ct.replyAt)
		parts := [...]time.Duration{ct.sendEnd.Sub(ct.sendStart), d[0], d[1], d[2], d[3], ct.replyAt.Sub(certifyFrom)}
		for i, name := range chainNames {
			chain[name] = append(chain[name], parts[i])
		}
		total = append(total, ct.replyAt.Sub(ct.sendStart))
	}
	return spans, chain, total
}

func writeTrace(dir string, w *workload, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+w.name+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{w.name, spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

// spanMetrics reports the p50 of each chain span in microseconds, and
// how much of the p50 request their sum explains.
func spanMetrics(m map[string]float64, chain map[string][]time.Duration, total []time.Duration) {
	sum := 0.0
	for _, name := range chainNames {
		p50 := percentileMs(sortedDurations(chain[name]), 0.5) * 1e3
		m["span."+name+"_us"] = p50
		sum += p50
	}
	if p50 := percentileMs(sortedDurations(total), 0.5) * 1e3; p50 > 0 {
		m["span.sum_vs_latency_pct"] = sum / p50 * 100
	}
}
