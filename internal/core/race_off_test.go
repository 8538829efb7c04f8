//go:build !race

package core_test

// raceBuild reports a -race build, whose ~10x slowdown the long
// differential tests trim their matrices for.
const raceBuild = false
