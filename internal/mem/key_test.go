package mem

import (
	"reflect"
	"testing"
)

// TestAppendKeyCoversEveryField changes each field of HierarchyConfig, and
// each field of each of its CacheConfigs, in turn and requires a key that
// differs from the unchanged config's. It walks the structs by reflection,
// so a field added later without a place in AppendKey fails here instead of
// letting two hierarchies share a checkpoint library.
func TestAppendKeyCoversEveryField(t *testing.T) {
	base := DefaultConfig()
	baseKey := string(base.AppendKey(nil))
	seen := map[string]string{baseKey: "default"}
	ht := reflect.TypeOf(base)
	for i := 0; i < ht.NumField(); i++ {
		f := ht.Field(i)
		if f.Type == reflect.TypeOf(CacheConfig{}) {
			for j := 0; j < f.Type.NumField(); j++ {
				c := base
				bump(t, reflect.ValueOf(&c).Elem().Field(i).Field(j), f.Name+"."+f.Type.Field(j).Name)
				checkKey(t, seen, c, f.Name+"."+f.Type.Field(j).Name)
			}
			continue
		}
		c := base
		bump(t, reflect.ValueOf(&c).Elem().Field(i), f.Name)
		checkKey(t, seen, c, f.Name)
	}
}

// bump changes an integer field by one.
func bump(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	default:
		t.Fatalf("field %s has kind %s: teach AppendKey and this test to change it", name, v.Kind())
	}
}

// checkKey requires c's key to be new: different from the default's and
// from every other single-field change.
func checkKey(t *testing.T, seen map[string]string, c HierarchyConfig, name string) {
	t.Helper()
	key := string(c.AppendKey(nil))
	if prev, ok := seen[key]; ok {
		t.Errorf("changing %s leaves the key %q of %s", name, key, prev)
	}
	seen[key] = name
}

func TestAppendKeyAllocatesNothing(t *testing.T) {
	c := DefaultConfig()
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { buf = c.AppendKey(buf[:0]) }); n != 0 {
		t.Errorf("AppendKey into a large enough buffer: %v allocs per run, want 0", n)
	}
}
