package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ufork/internal/apps/httpd"
	"ufork/internal/bench/ycsb"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// httpShape is the HTTP fleet's configuration.
type httpShape struct {
	docs, bodyBytes  int
	workers, drivers int
	mix              ycsb.Mix
	rate             float64
	ops              int
}

func docPath(i int) string { return fmt.Sprintf("/www/d%06d", i) }

// putRecord is one PUT of a document, stamped with the global event
// sequence at its start and end (end 0 while in flight).
type putRecord struct {
	id         int64
	start, end int64
}

// docHistory is the GET oracle. A GET may return any version whose PUT
// began before the GET ended, unless another PUT began after that version
// was acknowledged and was itself acknowledged before the GET began.
type docHistory struct {
	seq  int64
	puts [][]putRecord // per document; version 0 is the preloaded body
}

func newDocHistory(docs int) *docHistory {
	return &docHistory{puts: make([][]putRecord, docs)}
}

func (h *docHistory) tick() int64 { h.seq++; return h.seq }

func (h *docHistory) putStart(doc int, id int64, at int64) {
	h.puts[doc] = append(h.puts[doc], putRecord{id: id, start: at})
}

func (h *docHistory) putEnd(doc int, id int64, at int64) {
	for i := range h.puts[doc] {
		if h.puts[doc][i].id == id {
			h.puts[doc][i].end = at
		}
	}
}

// docVersion decodes the version a document body carries.
func docVersion(body []byte) (int64, bool) {
	at, semi := bytes.IndexByte(body, '@'), bytes.IndexByte(body, ';')
	if at < 0 || semi < at {
		return 0, false
	}
	v, err := strconv.ParseInt(string(body[at+1:semi]), 10, 64)
	return v, err == nil
}

// checkGet judges the body a GET of doc returned between sequence points
// start and end.
func (h *docHistory) checkGet(doc int, body []byte, n int, start, end int64) error {
	if len(body) == 0 {
		return fmt.Errorf("GET %s: empty body", docPath(doc))
	}
	v, ok := docVersion(body)
	if !ok {
		return fmt.Errorf("GET %s: undecodable body", docPath(doc))
	}
	if err := checkValue(body, doc, v, n); err != nil {
		return fmt.Errorf("GET %s: %w", docPath(doc), err)
	}
	vEnd := int64(0) // the preloaded version was acknowledged before everything
	if v != 0 {
		found := false
		for _, p := range h.puts[doc] {
			if p.id == v {
				if p.start > end {
					break
				}
				found, vEnd = true, p.end
				if vEnd == 0 {
					vEnd = end // still in flight: cannot be stale
				}
			}
		}
		if !found {
			return fmt.Errorf("GET %s: version %d was never written", docPath(doc), v)
		}
	}
	for _, p := range h.puts[doc] {
		if p.start > vEnd && p.end != 0 && p.end < start {
			return fmt.Errorf("GET %s: stale version %d, %d was acknowledged before the GET", docPath(doc), v, p.id)
		}
	}
	return nil
}

func nginxSpec() kernel.ProgramSpec {
	return kernel.ProgramSpec{
		Name:      "nginx",
		TextPages: 128, RodataPages: 32, GOTPages: 4, DataPages: 64,
		AllocMetaPages: 16, HeapPages: 512, StackPages: 32, TLSPages: 1,
		GOTEntries: 192,
	}
}

func driverSpec() kernel.ProgramSpec {
	return kernel.ProgramSpec{
		Name:      "wrk",
		TextPages: 4, RodataPages: 1, GOTPages: 1, DataPages: 1,
		AllocMetaPages: 1, HeapPages: 8, StackPages: 4, TLSPages: 1,
		GOTEntries: 8,
	}
}

// runHTTP boots the pre-forked httpd fleet over a ram-disk of documents
// and drives it from off-core client drivers, one open-loop stream each.
func runHTTP(s httpShape, o opts) (*rep, error) {
	ops := o.size(s.ops)
	arr := streams(o.seed, s.drivers, ops/s.drivers, s.rate, s.mix, s.docs)

	r := &rep{}
	if o.traced {
		r.spans = newSpanLog()
	}
	c0 := processCPU()
	id := r.spans.begin("kernel.New", -1, -1, 0)
	k := boot(model.UForkSMP(2), 1<<16, o.traced)
	r.spans.end(id, 0)
	pb := newProbe(r, k, c0)
	id = r.spans.begin("preload", -1, -1, 0)
	for i := 0; i < s.docs; i++ {
		k.VFS().WriteFile(docPath(i), kvValue(i, 0, s.bodyBytes))
	}
	r.spans.end(id, 0)
	hist := newDocHistory(s.docs)

	err := runRoot(k, nginxSpec(), func(p *kernel.Proc) error {
		id := r.spans.begin("httpd.Start", -1, -1, p.Now())
		srv, err := httpd.Start(p, s.workers)
		if err != nil {
			return err
		}
		rfd, wfd, err := k.Pipe(p)
		if err != nil {
			return err
		}
		doneEnd, err := p.FDs.Get(wfd)
		if err != nil {
			return err
		}
		r.spans.end(id, p.Now())
		pb.begin(p.Now())
		for d := range arr {
			stream := arr[d]
			if _, err := k.Spawn(driverSpec(), p.Now(), func(dp *kernel.Proc) {
				dp.Task.Offcore = true
				dfd := dp.FDs.Install(doneEnd)
				for _, a := range stream {
					idleUntil(dp.Task, r.start+a.Due)
					issued := dp.Now()
					err := httpOp(r, hist, srv, dp, a, s.bodyBytes, o.sabotage)
					r.done(a, issued, dp.Now(), err)
				}
				if _, err := k.Write(dp, dfd, []byte{1}); err != nil {
					r.fail("driver done: %v", err)
				}
			}); err != nil {
				return err
			}
		}
		buf := make([]byte, 1)
		for range arr {
			if _, err := k.Read(p, rfd, buf); err != nil {
				return fmt.Errorf("driver done: %w", err)
			}
		}
		pb.finish(p.Now())
		return srv.Shutdown(p)
	})
	return r, err
}

// httpOp sends one request and judges its response.
func httpOp(r *rep, hist *docHistory, srv *httpd.Server, dp *kernel.Proc, a arrival, n int, sabotage string) error {
	start := hist.tick()
	if a.Op == ycsb.OpRead {
		id := r.spans.begin("httpd.DoRequest", a.ID, -1, dp.Now())
		res, err := httpd.DoRequest(dp, srv.Listener, docPath(a.Key))
		r.spans.end(id, dp.Now())
		end := hist.tick()
		if err != nil {
			return err
		}
		if !strings.Contains(res.Status, "200") {
			return fmt.Errorf("GET %s: status %q", docPath(a.Key), res.Status)
		}
		if sabotage == sabotageGet && a.ID%11 == 4 && len(res.Body) > 0 {
			res.Body[len(res.Body)-1] ^= 1
		}
		return hist.checkGet(a.Key, res.Body, n, start, end)
	}
	hist.putStart(a.Key, a.ID, start)
	id := r.spans.begin("httpd.DoPut", a.ID, -1, dp.Now())
	res, err := httpd.DoPut(dp, srv.Listener, docPath(a.Key), kvValue(a.Key, a.ID, n))
	r.spans.end(id, dp.Now())
	hist.putEnd(a.Key, a.ID, hist.tick())
	if err == nil && !strings.Contains(res.Status, "201") {
		err = errors.New("PUT " + docPath(a.Key) + ": status " + strconv.Quote(res.Status))
	}
	return err
}
