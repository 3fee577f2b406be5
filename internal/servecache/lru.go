package servecache

import "container/list"

// lru is the least-recently-used index both cache tiers keep: the
// memory tier over its entries, the disk store over its files. It maps
// each key to its list element (front = most recently used), sums the
// items' sizes, and holds an entry bound and a byte bound; a bound
// below 1 means none. It is not safe for concurrent use: callers hold
// their tier's mutex. The zero value is an empty, unbounded index.
type lru[V any] struct {
	items      map[Key]*list.Element // values are *lruItem[V]
	order      list.List
	bytes      int64
	maxEntries int
	maxBytes   int64
}

type lruItem[V any] struct {
	key  Key
	val  V
	size int64
}

// get returns k's value and marks it most recently used.
func (l *lru[V]) get(k Key) (V, bool) {
	el, ok := l.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put inserts or replaces k's value at the given size and marks it most
// recently used. It then evicts from the least recently used end until
// both bounds hold, but never the last item (a bound too small for one
// result must not make the tier useless), and returns the evicted keys.
func (l *lru[V]) put(k Key, v V, size int64) (evicted []Key) {
	if el, ok := l.items[k]; ok {
		it := el.Value.(*lruItem[V])
		l.bytes += size - it.size
		it.val, it.size = v, size
		l.order.MoveToFront(el)
	} else {
		if l.items == nil {
			l.items = make(map[Key]*list.Element)
		}
		l.items[k] = l.order.PushFront(&lruItem[V]{key: k, val: v, size: size})
		l.bytes += size
	}
	for l.order.Len() > 1 &&
		(l.maxEntries > 0 && l.order.Len() > l.maxEntries || l.maxBytes > 0 && l.bytes > l.maxBytes) {
		it := l.order.Remove(l.order.Back()).(*lruItem[V])
		delete(l.items, it.key)
		l.bytes -= it.size
		evicted = append(evicted, it.key)
	}
	return evicted
}

// remove drops k, if present.
func (l *lru[V]) remove(k Key) {
	if el, ok := l.items[k]; ok {
		l.bytes -= l.order.Remove(el).(*lruItem[V]).size
		delete(l.items, k)
	}
}
