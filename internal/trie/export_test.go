package trie

// Len returns the number of valued entries the session holds.
func (e *Edit[T]) Len() int { return e.tbl.size }
