// Package maporder is the golden corpus for the maporder analyzer.
package maporder

import (
	"fmt"
	"sort"
	"strings"

	"github.com/laces-project/laces/internal/core"
)

func unsortedAccumulation(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to "keys" inside iteration over a map`
	}
	return keys
}

func sortedAccumulation(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortSliceAlsoCounts(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func helperSortCounts(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return sortedKeys(keys)
}

func qualifiedHelperSortCounts(m map[string]int) []string {
	var prefixes []string
	for p := range m {
		prefixes = append(prefixes, p)
	}
	core.SortPrefixStrings(prefixes)
	return prefixes
}

func qualifiedNonSortStillFires(m map[string]int) []string {
	var prefixes []string
	for p := range m {
		prefixes = append(prefixes, p) // want `append to "prefixes" inside iteration over a map`
	}
	return strings.Split(strings.Join(prefixes, ","), ",")
}

func sortedKeys(keys []string) []string {
	sort.Strings(keys)
	return keys
}

func directPrint(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `fmt\.Printf inside iteration over a map`
	}
}

func builderWrite(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `WriteString inside iteration over a map`
	}
	return b.String()
}

func loopLocalIsFine(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var evens []int
		for _, v := range vs {
			if v%2 == 0 {
				evens = append(evens, v)
			}
		}
		total += len(evens)
	}
	return total
}

func sizeOnlyIsFine(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
