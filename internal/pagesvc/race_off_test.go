//go:build !race

package pagesvc

const raceEnabled = false
