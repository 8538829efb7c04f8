// This fixture declares package core so the determinism rule's
// simulator-package scope applies; every marked line must be flagged.
package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"
)

func wallClock() int64 {
	start := time.Now()
	return time.Since(start).Nanoseconds()
}

func globalRand() int {
	rand.Seed(42)
	return rand.Intn(100)
}

func mapPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

func mapJSON(m map[string]int) [][]byte {
	var blobs [][]byte
	for k := range m {
		b, _ := json.Marshal(k)
		blobs = append(blobs, b)
	}
	return blobs
}

func mapEscapingAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func appendKey(dst []byte, k string) []byte { return append(dst, k...) }

type table struct{ rows []string }

func (t *table) Append(dst []byte) []byte { return append(dst, t.rows[0]...) }

func mapAppendThroughCall(m map[string]int) []byte {
	var buf []byte
	for k := range m {
		buf = appendKey(buf, k)
	}
	return buf
}

func mapAppendThroughMethod(m map[string]*table) []byte {
	var buf []byte
	for _, t := range m {
		buf = t.Append(buf)
	}
	return buf
}
