package main

import (
	"bytes"
	"strconv"
	"sync"
	"time"
)

// The reference kernel: a fixed piece of work of the benchmark's own,
// shaped like the product's (build a tree of small heap objects, index
// it by id, walk it, serialise it) and so slowed by the same things on a
// shared host: cache and memory bandwidth lost to neighbours, collector
// work, cores taken away.

type refNode struct {
	name  string
	id    string
	attrs []refAttr
	kids  []*refNode
	text  string
}

type refAttr struct{ name, value string }

const refFanout, refDepth = 6, 4 // 1 + 6 + 36 + 216 + 1296 nodes

func refBuild(depth int, n *int, byID map[string]*refNode) *refNode {
	*n++
	nd := &refNode{name: "div", id: "n" + strconv.Itoa(*n)}
	nd.attrs = append(nd.attrs, refAttr{"id", nd.id}, refAttr{"class", "c" + strconv.Itoa(*n%7)})
	byID[nd.id] = nd
	if depth == 0 {
		nd.text = "item " + nd.id
		return nd
	}
	nd.kids = make([]*refNode, 0, refFanout)
	for i := 0; i < refFanout; i++ {
		nd.kids = append(nd.kids, refBuild(depth-1, n, byID))
	}
	return nd
}

func refSerialize(b *bytes.Buffer, nd *refNode) {
	b.WriteByte('<')
	b.WriteString(nd.name)
	for _, a := range nd.attrs {
		b.WriteByte(' ')
		b.WriteString(a.name)
		b.WriteString(`="`)
		b.WriteString(a.value)
		b.WriteByte('"')
	}
	b.WriteByte('>')
	b.WriteString(nd.text)
	for _, k := range nd.kids {
		refSerialize(b, k)
	}
	b.WriteString("</")
	b.WriteString(nd.name)
	b.WriteByte('>')
}

// refIteration is one unit of reference work; it returns a value that
// depends on all of it.
func refIteration() int {
	n := 0
	byID := make(map[string]*refNode)
	root := refBuild(refDepth, &n, byID)
	hits := 0
	for i := 1; i <= n; i += 3 {
		if nd := byID["n"+strconv.Itoa(i)]; nd != nil && len(nd.kids) == 0 {
			hits++
		}
	}
	var b bytes.Buffer
	refSerialize(&b, root)
	return hits + b.Len()
}

// refNominal is the reference speed timings are reported at: iterations
// of the kernel per second on one of n goroutines. It is near what this
// repository's 2-vCPU sandbox does when its host is quiet, so that the
// reported numbers are near the measured ones; any constant would do.
const refNominal = 1000.0

// refSpeed runs the reference kernel on n goroutines at once, as the
// load runs its clients, for d (and once at least), and returns the
// machine's speed: one goroutine's iterations per second over refNominal.
func refSpeed(n int, d time.Duration) float64 {
	counts := make([]int, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				refIteration()
				counts[i]++
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / float64(n) / el / refNominal
}
