package proto

import (
	"reflect"
	"slices"
	"testing"
)

// TestLayoutRejects: field kinds without a fixed-width, pointer-free
// image are a construction error, nested structs are not (and a small
// one's bool and padding bytes are still checked), and the fingerprint
// separates layouts that differ only in field widths.
func TestLayoutRejects(t *testing.T) {
	type nested struct {
		A uint8
		B struct {
			C bool
			D int16
		}
	}
	// An image under 8 bytes is checked byte by byte: C at offset 2,
	// padding at offset 3.
	small := LayoutOf[nested]()
	img := make([]byte, small.Size)
	PutImage(small, img, &nested{A: 7, B: struct {
		C bool
		D int16
	}{true, -2}})
	if !small.Valid(img) {
		t.Errorf("valid %d-byte image % x rejected", small.Size, img)
	}
	for _, o := range []int{2, 3} {
		bad := slices.Clone(img)
		bad[o] = 2
		if small.Valid(bad) {
			t.Errorf("%d-byte image with byte %d = 2 accepted", small.Size, o)
		}
	}
	for name, err := range map[string]error{
		"int":     errOf[struct{ X int }](),
		"float64": errOf[struct{ X float64 }](),
		"pointer": errOf[struct{ X *int32 }](),
		"string":  errOf[struct{ X string }](),
		"array":   errOf[struct{ X [2]int32 }](),
		"nested":  errOf[struct{ Y struct{ X []byte } }](),
		"empty":   errOf[struct{}](),
	} {
		if err == nil {
			t.Errorf("%s field: derived a layout", name)
		}
	}
	a := LayoutOf[struct{ X, Y int16 }]()
	b := LayoutOf[struct{ X int32 }]()
	if a.Fingerprint == b.Fingerprint {
		t.Error("int16 pair and int32 share a fingerprint")
	}
}

func errOf[S any]() error {
	_, err := newLayout(reflect.TypeFor[S]())
	return err
}
