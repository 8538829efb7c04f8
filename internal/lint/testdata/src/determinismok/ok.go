// This fixture declares package core so the determinism rule's
// simulator-package scope applies; nothing here may be flagged.
package core

import (
	"math/rand"
	"sort"
	"time"
)

// An explicitly seeded generator is the sanctioned source of randomness.
func seededRand() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(100)
}

// Iterating sorted keys is the sanctioned way to order map contents.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// A map range whose body only accumulates unordered state is fine.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Deliberate wall-clock use, suppressed by a trailing directive.
func allowedTrailing() time.Time {
	return time.Now() //rblint:allow determinism
}

// Deliberate wall-clock use, suppressed by a standalone directive.
func allowedStandalone() time.Time {
	//rblint:allow determinism
	return time.Now()
}

// Threading a non-slice accumulator through a call is not ordered output.
func largest(m map[string]int) int {
	best := 0
	for _, v := range m {
		best = max(best, v)
	}
	return best
}

// A buffer declared inside the loop, or threaded through a call and
// sorted afterwards, carries no iteration order out of it.
func quotedLength(m map[string]int) int {
	n := 0
	for k := range m {
		var buf []byte
		buf = appendQuoted(buf, k)
		n += len(buf)
	}
	return n
}

func sortedThroughCall(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = appendKey(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendQuoted(dst []byte, s string) []byte { return append(append(append(dst, '"'), s...), '"') }

func appendKey(dst []string, k string) []string { return append(dst, k) }
