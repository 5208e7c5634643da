// Weblog deduplicates and counts page hits whose URLs share a long
// constant prefix — the paper's URL1/URL2 workloads, where skipping
// the constant subsequence (Section 3.2.1) is the whole win: the
// synthesized function reads only the 20 variable characters of a
// 48-byte key.
//
//	go run ./examples/weblog
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/sepe-go/sepe"
)

const (
	prefix = "https://www.example.com"
	suffix = ".html"
	hits   = 300000
	pages  = 5000
)

func pageURL(i int) string {
	const alnum = "0123456789abcdefghijklmnopqrstuvwxyz"
	buf := make([]byte, 0, len(prefix)+20+len(suffix))
	buf = append(buf, prefix...)
	v := uint64(i) * 2654435761
	for j := 0; j < 20; j++ {
		buf = append(buf, alnum[v%36])
		v = v/36 + uint64(i)
	}
	buf = append(buf, suffix...)
	return string(buf)
}

func main() {
	format, err := sepe.ParseRegex(`https://www\.example\.com[a-z0-9]{20}\.html`)
	if err != nil {
		log.Fatal(err)
	}
	offxor, err := sepe.Synthesize(format, sepe.OffXor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("format:", format.Regex())
	fmt.Printf("key length %d bytes, only %d bits variable → %s\n",
		format.MaxLen(), format.VariableBits(), offxor)

	urls := make([]string, hits)
	for i := range urls {
		urls[i] = pageURL(i % pages)
	}

	count := func(hash sepe.HashFunc) (int, time.Duration) {
		start := time.Now()
		counts := sepe.NewMap[int](hash)
		for _, u := range urls {
			n, _ := counts.Get(u)
			counts.Put(u, n+1)
		}
		return counts.Len(), time.Since(start)
	}

	nSpec, tSpec := count(offxor.Func())
	nStd, tStd := count(sepe.STLHash)
	if nSpec != pages || nStd != pages {
		log.Fatalf("page counts wrong: %d / %d, want %d", nSpec, nStd, pages)
	}
	fmt.Printf("\ncounted %d hits over %d pages\n", hits, pages)
	fmt.Printf("%-22s %v\n", "synthesized OffXor:", tSpec)
	fmt.Printf("%-22s %v\n", "std (STL murmur):", tStd)

	// A multiset view of the same traffic, for RQ9 flavour.
	ms := sepe.NewMultiMap[struct{}](offxor.Func())
	for _, u := range urls[:1000] {
		ms.Put(u, struct{}{})
	}
	sample := pageURL(1)
	fmt.Printf("\nmultiset: %d observations; %q seen %d times\n",
		ms.Len(), sample[len(prefix):len(prefix)+8]+"…", ms.Count(sample))

	fmt.Println("\n--- generated Go for this format ---")
	fmt.Print(offxor.GoSource("weblog", "HashPage"))
}
