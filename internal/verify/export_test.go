package verify

// WatchTableGrowth sets tableGrown for the external tests: f sees every
// rehash of a visited table — the table's identity, its share of the
// search, the keys it holds and its new size — until the returned function
// unsets it.
func WatchTableGrowth(f func(table any, share, keys, size int)) (stop func()) {
	tableGrown = func(s *keySet, size int) { f(s, s.share, s.n, size) }
	return func() { tableGrown = nil }
}
