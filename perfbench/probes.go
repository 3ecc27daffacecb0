package main

import (
	"bytes"
	"fmt"
	"time"

	"wlcrc/internal/compress"
	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// probeSchemes are the codecs the core probe times: the eight plane
// schemes of Fig. 8 and the four counter-keyed schemes of the
// encrypted study.
var probeSchemes = append(core.EvaluationSchemes(), "VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)")

// gatedSchemes are the compression-gated schemes whose compressed-write
// share is reported.
var gatedSchemes = []string{"COC+4cosets", "WLC+4cosets", "WLCRC-16", "Enc(WLCRC-16)"}

// wlcK is the WLC compressibility threshold of WLCRC-16 (six identical
// most-significant bits per word).
const wlcK = 6

// codecProbe replays a request sample through one scheme's codec
// against the probe's own addr -> stored-line state, outside the
// engine.
type codecProbe struct {
	name  string
	sch   core.Scheme
	plane core.PlaneScheme   // nil for counter schemes
	ctr   core.CounterScheme // nil for plane schemes
	width int                // uint64 plane words or cells per line
	cur   [][]uint64         // slot -> stored planes (plane schemes)
	curC  [][]pcm.State      // slot -> stored cells (counter schemes)
	out   []uint64
	outC  []pcm.State
	ctrs  []uint64 // per slot write counter
	ctrOf []uint64 // per request counter used
}

// layerProbe times the codec layers on a workload's own requests.
type layerProbe struct {
	sample []trace.Request // the replayed stream's first requests
	plain  []trace.Request // their plaintext
	slot   []int           // sample index -> line slot
	lines  int
	codecs []*codecProbe
	tabs   []coset.SWARTable
	data   []uint64 // coset probe: data words
	oldLo  []uint64 // coset probe: stored planes of the words
	oldHi  []uint64
	src    *trace.MappedSource // decode sweep source
	reqs   int                 // requests in the image
	sink   uint64
}

// newLayerProbe prepares the probes for a sample of requests, and the
// decode sweep over the whole stream: the mapped trace when there is
// one, otherwise an in-memory trace image of all of stream it writes
// here (returning the write time per request).
func newLayerProbe(sample, plain []trace.Request, stream *trace.MappedSource, all []trace.Request) (*layerProbe, float64, error) {
	p := &layerProbe{sample: sample, plain: plain}
	slots := map[uint64]int{}
	for _, q := range sample {
		s, ok := slots[q.Addr]
		if !ok {
			s = len(slots)
			slots[q.Addr] = s
		}
		p.slot = append(p.slot, s)
	}
	p.lines = len(slots)
	cfg := core.DefaultConfig()
	for _, name := range probeSchemes {
		sch, err := core.NewScheme(name, cfg)
		if err != nil {
			return nil, 0, err
		}
		c := &codecProbe{name: name, sch: sch}
		if ps, ok := core.PlaneCodec(sch); ok {
			c.plane = ps
			c.width = coset.PlaneWords(sch.TotalCells())
			c.cur = make([][]uint64, p.lines)
			c.out = make([]uint64, len(sample)*c.width)
		} else if cs, ok := sch.(core.CounterScheme); ok {
			c.ctr = cs
			c.width = sch.TotalCells()
			c.curC = make([][]pcm.State, p.lines)
			c.outC = make([]pcm.State, len(sample)*c.width)
			c.ctrs = make([]uint64, p.lines)
			c.ctrOf = make([]uint64, len(sample))
		} else {
			return nil, 0, fmt.Errorf("scheme %s has neither a plane nor a counter codec", name)
		}
		p.codecs = append(p.codecs, c)
	}
	p.tabs = coset.SWARTables(&cfg.Energy, coset.Table1[:])
	for _, q := range sample {
		for w := 0; w < memline.LineWords; w++ {
			lo, hi := coset.C1SWAR.ApplyPlanes(memline.LoHiPlanes(q.Old.Word(w)))
			p.data = append(p.data, q.New.Word(w))
			p.oldLo = append(p.oldLo, lo)
			p.oldHi = append(p.oldHi, hi)
		}
	}
	var writeNs float64
	if stream != nil {
		p.src, p.reqs = stream, stream.Records()
	} else {
		var buf bytes.Buffer
		t0 := time.Now()
		tw, err := trace.NewWriter(&buf)
		if err != nil {
			return nil, 0, err
		}
		for i := range all {
			if err := tw.Write(all[i]); err != nil {
				return nil, 0, err
			}
		}
		if err := tw.Close(); err != nil {
			return nil, 0, err
		}
		writeNs = float64(time.Since(t0).Nanoseconds()) / float64(len(all))
		if p.src, err = trace.NewMappedBytes(buf.Bytes()); err != nil {
			return nil, 0, err
		}
		p.reqs = len(all)
	}
	return p, writeNs, nil
}

// probeResult is one probe round's timings and counts.
type probeResult struct {
	encNs, decNs map[string]float64 // per request
	compressed   map[string]float64 // compressed-write share
	cosetNsWord  float64
	wlcNsLine    float64
	wlcFrac      float64
	decodeNsReq  float64
	encryptNsReq float64
}

// run times every probe once over the sample, recording one span per
// layer under parent.
func (p *layerProbe) run(tr *tracer, id string, parent int) (probeResult, error) {
	res := probeResult{encNs: map[string]float64{}, decNs: map[string]float64{}, compressed: map[string]float64{}}
	n := len(p.sample)

	sp := tr.begin("core", id, parent)
	for _, c := range p.codecs {
		enc, dec, comp, bad := c.replay(p)
		if bad > 0 {
			tr.end(sp, 0)
			return res, fmt.Errorf("core probe: %s decoded %d of %d lines wrongly", c.name, bad, n)
		}
		res.encNs[c.name] = float64(enc.Nanoseconds()) / float64(n)
		res.decNs[c.name] = float64(dec.Nanoseconds()) / float64(n)
		res.compressed[c.name] = float64(comp) / float64(n)
	}
	tr.end(sp, 2*n*len(p.codecs))

	sp = tr.begin("coset", id, parent)
	t0 := time.Now()
	var wp coset.WordPlanes
	for i, d := range p.data {
		wp.SetData(d)
		wp.SetOldPlanes(p.oldLo[i], p.oldHi[i])
		idx, _ := coset.BestSWAR(p.tabs, &wp, coset.AllCells)
		p.sink += uint64(idx)
	}
	res.cosetNsWord = float64(time.Since(t0).Nanoseconds()) / float64(len(p.data))
	tr.end(sp, len(p.data))

	sp = tr.begin("compress", id, parent)
	wlc := compress.WLC{K: wlcK}
	t0 = time.Now()
	hits := 0
	for i := range p.sample {
		if wlc.LineCompressible(&p.sample[i].New) {
			hits++
			c := wlc.CompressLine(&p.sample[i].New)
			p.sink += uint64(c[0])
		}
	}
	res.wlcNsLine = float64(time.Since(t0).Nanoseconds()) / float64(n)
	res.wlcFrac = float64(hits) / float64(n)
	tr.end(sp, n)

	sp = tr.begin("trace", id, parent)
	t0 = time.Now()
	p.src.Rewind()
	buf := make([]trace.Request, 512)
	got := 0
	for {
		k := p.src.NextBatch(buf)
		if k == 0 {
			break
		}
		got += k
		p.sink += buf[k-1].Addr
	}
	p.src.Rewind()
	res.decodeNsReq = float64(time.Since(t0).Nanoseconds()) / float64(got)
	tr.end(sp, got)
	if got != p.reqs {
		return res, fmt.Errorf("trace probe: decoded %d of %d requests", got, p.reqs)
	}

	sp = tr.begin("vcc", id, parent)
	t0 = time.Now()
	enc := workload.Encrypted(&trace.SliceSource{Reqs: p.plain}, 0).(trace.BatchSource)
	out := make([]trace.Request, len(p.plain))
	k := enc.NextBatch(out)
	res.encryptNsReq = float64(time.Since(t0).Nanoseconds()) / float64(k)
	tr.end(sp, k)
	return res, nil
}

// replay encodes every sample request over the line's current stored
// form, then decodes every stored result, returning both loop times,
// the compressed-write count and the number of wrong decodes.
func (c *codecProbe) replay(p *layerProbe) (enc, dec time.Duration, compressed, bad int) {
	var line memline.Line
	if c.plane != nil {
		zero := make([]uint64, c.width)
		for i := range c.cur {
			c.cur[i] = zero
		}
		t0 := time.Now()
		for i := range p.sample {
			s := p.slot[i]
			dst := c.out[i*c.width : (i+1)*c.width]
			c.plane.EncodePlanesInto(dst, c.cur[s], &p.sample[i].New)
			c.cur[s] = dst
		}
		enc = time.Since(t0)
		t0 = time.Now()
		for i := range p.sample {
			c.plane.DecodePlanesInto(c.out[i*c.width:(i+1)*c.width], &line)
			if line != p.sample[i].New {
				bad++
			}
		}
		dec = time.Since(t0)
		gate := core.CompressedWritePlanesFunc(c.sch)
		for i := range p.sample {
			if gate(c.out[i*c.width : (i+1)*c.width]) {
				compressed++
			}
		}
		return enc, dec, compressed, bad
	}
	zero := core.InitialCells(c.width)
	for i := range c.curC {
		c.curC[i] = zero
		c.ctrs[i] = 0
	}
	t0 := time.Now()
	for i := range p.sample {
		s := p.slot[i]
		c.ctrs[s]++
		c.ctrOf[i] = c.ctrs[s]
		dst := c.outC[i*c.width : (i+1)*c.width]
		c.ctr.EncodeCtrInto(dst, c.curC[s], p.sample[i].Addr, c.ctrOf[i], &p.sample[i].New)
		c.curC[s] = dst
	}
	enc = time.Since(t0)
	t0 = time.Now()
	for i := range p.sample {
		c.ctr.DecodeCtrInto(c.outC[i*c.width:(i+1)*c.width], p.sample[i].Addr, c.ctrOf[i], &line)
		if line != p.sample[i].New {
			bad++
		}
	}
	dec = time.Since(t0)
	gate := core.CompressedWriteFunc(c.sch)
	for i := range p.sample {
		if gate(c.outC[i*c.width : (i+1)*c.width]) {
			compressed++
		}
	}
	return enc, dec, compressed, bad
}
