//go:build race

package difftest

const race = true
