package resultcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestGetPutLRU: a Get makes its key the most recent, so a Put into a full
// cache evicts whichever key was used longest ago, whatever the keys are.
func TestGetPutLRU(t *testing.T) {
	c := New(2, time.Minute)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("c", []byte("3")) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU kept b, the least recently used entry")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("LRU evicted %s", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Hits != 3 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheCapacityIsTotal: New's capacity bounds the whole cache, and the
// entries it keeps are the most recently used ones.
func TestCacheCapacityIsTotal(t *testing.T) {
	c := New(3, time.Minute)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 5 {
		t.Fatalf("New(3) after 8 keys: %+v, want 3 entries and 5 evictions", st)
	}
	for i := 0; i < 8; i++ {
		_, ok := c.Get(fmt.Sprintf("k%d", i))
		if want := i >= 5; ok != want {
			t.Fatalf("k%d cached = %v, want %v", i, ok, want)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New(64, time.Second, WithClock(func() time.Time { return now }))
	c.Put("a", []byte("1"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired entry served")
	}
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("expiry not collected: %+v", st)
	}
	// Put refreshes the deadline.
	c.Put("a", []byte("2"))
	now = now.Add(500 * time.Millisecond)
	if v, ok := c.Get("a"); !ok || string(v) != "2" {
		t.Fatalf("refreshed entry missed: %q, %v", v, ok)
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := New(0, time.Minute)
	c.Put("a", []byte("1"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("capacity-0 cache stored something")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(128, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%64)
				if i%3 == 0 {
					c.Put(k, []byte(k))
				} else if v, ok := c.Get(k); ok && string(v) != k {
					t.Errorf("value corruption: key %s got %q", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
