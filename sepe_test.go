package sepe

import (
	"fmt"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	// The package-doc session must work exactly as documented.
	format, err := ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := Synthesize(format, Pext)
	if err != nil {
		t.Fatal(err)
	}
	if !hash.Bijective() {
		t.Error("SSN Pext must be bijective")
	}
	m := NewMap[string](hash.Func())
	m.Put("078-05-1120", "Woolworth")
	if v, ok := m.Get("078-05-1120"); !ok || v != "Woolworth" {
		t.Errorf("Get = %q, %v", v, ok)
	}
}

func TestInferAndParseAgree(t *testing.T) {
	byExamples, err := Infer([]string{"000-00-0000", "555-55-5555", "999-99-9999"})
	if err != nil {
		t.Fatal(err)
	}
	byRegex, err := ParseRegex(byExamples.Regex())
	if err != nil {
		t.Fatal(err)
	}
	if byExamples.Regex() != byRegex.Regex() {
		t.Errorf("front ends disagree: %q vs %q", byExamples.Regex(), byRegex.Regex())
	}
	for _, fam := range Families {
		h1, err := Synthesize(byExamples, fam)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Synthesize(byRegex, fam)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("%03d-%02d-%04d", i, i%100, i*7%10000)
			if h1.Hash(k) != h2.Hash(k) {
				t.Fatalf("%v: front ends produce different functions", fam)
			}
		}
	}
}

func TestFormatAccessors(t *testing.T) {
	f, err := ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	if !f.FixedLen() || f.MinLen() != 11 || f.MaxLen() != 11 {
		t.Errorf("length accessors wrong: [%d,%d]", f.MinLen(), f.MaxLen())
	}
	if f.VariableBits() != 36 {
		t.Errorf("VariableBits = %d, want 36", f.VariableBits())
	}
	if !f.Matches("123-45-6789") || f.Matches("123456789") {
		t.Error("Matches wrong")
	}
}

func TestSynthesizeNil(t *testing.T) {
	if _, err := Synthesize(nil, Pext); err == nil {
		t.Error("nil format must fail")
	}
	if _, err := SynthesizeAll(nil); err == nil {
		t.Error("nil format must fail")
	}
}

func TestSynthesizeAllTargets(t *testing.T) {
	f, err := ParseRegex(`[0-9]{16}`)
	if err != nil {
		t.Fatal(err)
	}
	x86, err := SynthesizeAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(x86) != 4 {
		t.Errorf("x86 families = %d, want 4", len(x86))
	}
	arm, err := SynthesizeAll(f, WithTarget(TargetAarch64))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := arm[Pext]; ok || len(arm) != 3 {
		t.Errorf("aarch64 families = %d (Pext present: %v)", len(arm), ok)
	}
	if _, err := Synthesize(f, Pext, WithTarget(TargetAarch64)); err == nil {
		t.Error("Pext on aarch64 must fail")
	}
}

func TestShortKeyOption(t *testing.T) {
	f, err := ParseRegex(`[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Synthesize(f, Pext)
	if err != nil {
		t.Fatal(err)
	}
	if !def.Fallback() {
		t.Error("short format must fall back by default")
	}
	forced, err := Synthesize(f, Pext, AllowShortKeys())
	if err != nil {
		t.Fatal(err)
	}
	if forced.Fallback() {
		t.Error("AllowShortKeys must produce a real plan")
	}
	seen := map[uint64]string{}
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("%04d", i)
		h := forced.Hash(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("short Pext collision: %q vs %q", prev, k)
		}
		seen[h] = k
	}
}

func TestSourceEmission(t *testing.T) {
	f, err := ParseRegex(`([0-9]{3}\.){3}[0-9]{3}`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Synthesize(f, OffXor)
	if err != nil {
		t.Fatal(err)
	}
	goSrc := h.GoSource("iphash", "HashIPv4")
	if !strings.Contains(goSrc, "package iphash") || !strings.Contains(goSrc, "func HashIPv4(key string) uint64") {
		t.Errorf("Go source wrong:\n%s", goSrc)
	}
	cpp := h.CPPSource("ipv4Hash")
	if !strings.Contains(cpp, "struct ipv4Hash") {
		t.Errorf("C++ source wrong:\n%s", cpp)
	}
	if !strings.Contains(SupportSource("iphash"), "package iphash") {
		t.Error("support source wrong")
	}
}

func TestBaselines(t *testing.T) {
	for name, f := range map[string]HashFunc{
		"STL": STLHash, "FNV": FNVHash, "City": CityHash, "Abseil": AbseilHash,
	} {
		if f("hello") != f("hello") || f("hello") == f("world") {
			t.Errorf("%s baseline misbehaves", name)
		}
	}
}

func TestContainersRoundTrip(t *testing.T) {
	h := STLHash
	m := NewMap[int](h)
	s := NewMap[struct{}](h)
	mm := NewMultiMap[int](h)
	ms := NewMultiMap[struct{}](h)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%d", i)
		m.Put(k, i)
		s.Put(k, struct{}{})
		mm.Put(k, i)
		mm.Put(k, i+1)
		ms.Put(k, struct{}{})
		ms.Put(k, struct{}{})
	}
	if m.Len() != 1000 || s.Len() != 1000 || mm.Len() != 2000 || ms.Len() != 2000 {
		t.Fatalf("lengths: %d %d %d %d", m.Len(), s.Len(), mm.Len(), ms.Len())
	}
	if v, ok := m.Get("key7"); !ok || v != 7 {
		t.Error("Map Get wrong")
	}
	if _, ok := s.Get("key7"); !ok {
		t.Error("Set Get missed a member")
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("Set Get found a non-member")
	}
	if got := mm.GetAll("key7"); len(got) != 2 {
		t.Errorf("MultiMap GetAll = %v", got)
	}
	if mm.Count("key7") != 2 || ms.Count("key7") != 2 {
		t.Error("Count wrong")
	}
	if m.Delete("key7") != 1 || s.Delete("key7") != 1 ||
		mm.Delete("key7") != 2 || ms.Delete("key7") != 2 {
		t.Error("Delete counts wrong")
	}
	st := m.Stats()
	if st.Size != 999 || st.Buckets < 999 || st.MaxBucketLen < 1 {
		t.Errorf("Stats = %+v", st)
	}
	n := 0
	m.ForEach(func(string, int) { n++ })
	if n != 999 {
		t.Errorf("ForEach visited %d", n)
	}
	if ms.Count("key8") != 2 {
		t.Error("MultiSet Count wrong")
	}
}

func TestHashString(t *testing.T) {
	f, _ := ParseRegex(`[0-9]{16}`)
	h, err := Synthesize(f, Aes)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.String(), "Aes") {
		t.Errorf("String = %q", h.String())
	}
	if h.Family() != Aes {
		t.Error("Family accessor wrong")
	}
}

func TestFamilyNames(t *testing.T) {
	names := map[Family]string{Naive: "Naive", OffXor: "OffXor", Aes: "Aes", Pext: "Pext"}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(f), f.String(), want)
		}
	}
}

func ExampleSynthesize() {
	format, _ := ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	hash, _ := Synthesize(format, Pext)
	fmt.Println(hash.Bijective())
	fmt.Println(hash.Hash("000-00-0000") == hash.Hash("000-00-0001"))
	// Output:
	// true
	// false
}

func ExampleInfer() {
	// Example 3.6 of the paper: two well-chosen examples (all 0s and
	// all 5s) exercise every digit quad at every position.
	format, _ := Infer([]string{"000.000.000.000", "555.555.555.555"})
	fmt.Println(format.Regex())
	// Output:
	// [0-9]{3}\.[0-9]{3}\.[0-9]{3}\.[0-9]{3}
}

func TestBijectiveMap(t *testing.T) {
	f, err := ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	pext, err := Synthesize(f, Pext)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewBijectiveMap[int](pext)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := m.Put(fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000), i); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 5000 {
		t.Fatalf("Len = %d", m.Len())
	}
	if v, ok := m.Get("001-01-0001"); !ok || v != 1 {
		t.Errorf("Get = %d,%v", v, ok)
	}
	if !m.Delete("001-01-0001") {
		t.Error("Delete failed")
	}
	// Non-bijective functions are rejected.
	offxor, err := Synthesize(f, OffXor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBijectiveMap[int](offxor); err == nil {
		t.Error("OffXor (non-bijective) must be rejected")
	}
}

func TestFormatSamples(t *testing.T) {
	f, err := ParseRegex(`[0-9]{3}-[0-9]{2}`)
	if err != nil {
		t.Fatal(err)
	}
	samples := f.Samples(20, 1)
	if len(samples) != 20 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		if !f.Matches(s) {
			t.Errorf("sample %q does not match its format", s)
		}
	}
	// Determinism per seed.
	again := f.Samples(20, 1)
	for i := range samples {
		if samples[i] != again[i] {
			t.Fatal("samples not deterministic for a fixed seed")
		}
	}
	// Non-positive counts yield an empty slice, never a panic.
	for _, n := range []int{0, -1, -50} {
		if got := f.Samples(n, 1); got == nil || len(got) != 0 {
			t.Errorf("Samples(%d) = %v, want empty slice", n, got)
		}
	}
}

func TestHashInvert(t *testing.T) {
	f, err := ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	pext, err := Synthesize(f, Pext)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("%03d-%02d-%04d", i, (i*3)%100, (i*7)%10000)
		back, ok := pext.Invert(pext.Hash(k))
		if !ok || back != k {
			t.Fatalf("Invert(Hash(%q)) = %q, %v", k, back, ok)
		}
	}
	offxor, err := Synthesize(f, OffXor)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := offxor.Invert(0); ok {
		t.Error("non-bijective hash must not invert")
	}
}

func TestFacadeReserveLoadClear(t *testing.T) {
	m := NewMap[int](STLHash)
	m.Reserve(3000)
	buckets := m.Stats().Buckets
	for i := 0; i < 3000; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	if m.Stats().Buckets != buckets {
		t.Error("Reserve did not prevent rehash")
	}
	if lf := m.LoadFactor(); lf <= 0 || lf > 1 {
		t.Errorf("LoadFactor = %v", lf)
	}
	m.Clear()
	if m.Len() != 0 {
		t.Error("Clear failed")
	}
	s := NewMap[struct{}](STLHash)
	s.Reserve(100)
	s.Put("a", struct{}{})
	if s.LoadFactor() <= 0 {
		t.Error("Set LoadFactor wrong")
	}
	s.Clear()
	if _, ok := s.Get("a"); ok {
		t.Error("Set Clear failed")
	}
}

func TestEvaluate(t *testing.T) {
	f, err := ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	sample := f.Samples(500, 3)
	evs, err := Evaluate(f, sample)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 { // four families + STL
		t.Fatalf("evaluations = %d, want 5", len(evs))
	}
	names := map[string]bool{}
	for i, ev := range evs {
		names[ev.Name] = true
		if ev.NsPerKey <= 0 {
			t.Errorf("%s: NsPerKey = %v", ev.Name, ev.NsPerKey)
		}
		if i > 0 && ev.NsPerKey < evs[i-1].NsPerKey {
			t.Error("evaluations not sorted fastest-first")
		}
		if ev.Name == "Pext" && !ev.Bijective {
			t.Error("SSN Pext must be bijective")
		}
		if ev.Name != "STL" && ev.Hash == nil {
			t.Errorf("%s: missing Hash", ev.Name)
		}
		if ev.Collisions != 0 {
			t.Errorf("%s: %d collisions on 500 format samples", ev.Name, ev.Collisions)
		}
	}
	if !names["STL"] || !names["Pext"] {
		t.Errorf("missing expected rows: %v", names)
	}
	if _, err := Evaluate(f, nil); err == nil {
		t.Error("empty sample must fail")
	}
	if _, err := Evaluate(nil, sample); err == nil {
		t.Error("nil format must fail")
	}
}

func TestRecommend(t *testing.T) {
	ssn, _ := ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	h, err := Recommend(ssn)
	if err != nil {
		t.Fatal(err)
	}
	if h.Family() != Pext || !h.Bijective() {
		t.Errorf("SSN recommendation = %v (bijective %v), want bijective Pext",
			h.Family(), h.Bijective())
	}
	// > 64 variable bits: OffXor recommended.
	ints, _ := ParseRegex(`[0-9]{100}`)
	h2, err := Recommend(ints)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Family() != OffXor {
		t.Errorf("INTS recommendation = %v, want OffXor", h2.Family())
	}
	// aarch64: no Pext; must still recommend.
	h3, err := Recommend(ssn, WithTarget(TargetAarch64))
	if err != nil {
		t.Fatal(err)
	}
	if h3.Family() != OffXor {
		t.Errorf("aarch64 recommendation = %v, want OffXor", h3.Family())
	}
	if _, err := Recommend(nil); err == nil {
		t.Error("nil format must fail")
	}
}

func TestHashBackend(t *testing.T) {
	format, err := ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Synthesize(format, Pext)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever tier was chosen, it must name itself and must not be
	// the fallback (SSNs are long enough to specialize).
	switch h.Backend() {
	case BackendHardware, BackendSoftware:
	default:
		t.Errorf("Backend() = %v, want hardware or software", h.Backend())
	}
	if h.Backend().String() == "" {
		t.Error("Backend must stringify")
	}
	short, err := Synthesize(mustParse(t, `[0-9]{4}`), Pext)
	if err != nil {
		t.Fatal(err)
	}
	if short.Backend() != BackendFallback || !short.Fallback() {
		t.Errorf("short format backend = %v, want fallback", short.Backend())
	}
}

func mustParse(t *testing.T, expr string) *Format {
	t.Helper()
	f, err := ParseRegex(expr)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
