package main

import (
	"fmt"
	"math"
)

// checkFloat reports the first element where got differs from want
// bit for bit, or nil.
func checkFloat(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkInt reports the first element where got differs from want.
func checkInt(got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("element %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// selfTestFloat corrupts one element of a copy of a result that passed
// its check and confirms the check then fails; a checker that cannot
// see a wrong element would make every "correct" verdict meaningless.
func selfTestFloat(good, want []float32) error {
	bad := append([]float32(nil), good...)
	bad[len(bad)/2] = math.Float32frombits(math.Float32bits(bad[len(bad)/2]) ^ 1)
	if checkFloat(bad, want) == nil {
		return fmt.Errorf("self-test: float check accepted a corrupted result")
	}
	return nil
}

// selfTestInt is selfTestFloat for int32 results.
func selfTestInt(good, want []int32) error {
	bad := append([]int32(nil), good...)
	bad[len(bad)/2]++
	if checkInt(bad, want) == nil {
		return fmt.Errorf("self-test: int check accepted a corrupted result")
	}
	return nil
}
