// Products: an e-commerce catalog in the style of the CNET dataset the
// paper cites (233,304 products, 2,984 attributes, ~11 defined each). This
// example builds a sparse catalog of several product families with
// family-specific attributes, then runs typo-tolerant similarity searches
// and shows how the filter cuts random table accesses.
//
// Run with: go run ./examples/products
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/sparsewide/iva"
)

type family struct {
	kind   string
	brands []string
	// attribute name → value generator
	numeric map[string]func(*rand.Rand) float64
	text    map[string][]string
}

var families = []family{
	{
		kind:   "Digital Camera",
		brands: []string{"Canon", "Sony", "Nikon", "Olympus", "Panasonic"},
		numeric: map[string]func(*rand.Rand) float64{
			"Price": func(r *rand.Rand) float64 { return 120 + float64(r.Intn(900)) },
			"Pixel": func(r *rand.Rand) float64 { return float64(6+r.Intn(18)) * 1_000_000 },
			"Zoom":  func(r *rand.Rand) float64 { return float64(3 + r.Intn(27)) },
		},
		text: map[string][]string{
			"Lens":  {"Wide-angle", "Telephoto", "Macro", "Fisheye"},
			"Color": {"Black", "Silver", "Red"},
		},
	},
	{
		kind:   "Laptop",
		brands: []string{"Lenovo", "Dell", "Apple", "Asus"},
		numeric: map[string]func(*rand.Rand) float64{
			"Price":  func(r *rand.Rand) float64 { return 400 + float64(r.Intn(2200)) },
			"Memory": func(r *rand.Rand) float64 { return float64(int(4) << r.Intn(4)) },
			"Screen": func(r *rand.Rand) float64 { return 11 + float64(r.Intn(7)) },
		},
		text: map[string][]string{
			"CPU":   {"Core i5", "Core i7", "Ryzen 5", "Ryzen 7"},
			"Color": {"Black", "Gray"},
		},
	},
	{
		kind:   "Headphones",
		brands: []string{"Bose", "Sennheiser", "Sony", "Audio-Technica"},
		numeric: map[string]func(*rand.Rand) float64{
			"Price":     func(r *rand.Rand) float64 { return 30 + float64(r.Intn(400)) },
			"Impedance": func(r *rand.Rand) float64 { return float64(16 + 16*r.Intn(20)) },
		},
		text: map[string][]string{
			"Fit":   {"Over-ear", "On-ear", "In-ear"},
			"Color": {"Black", "White", "Blue"},
		},
	},
}

// typo injects community noise: a duplicated or substituted character.
func typo(r *rand.Rand, s string) string {
	b := []byte(s)
	p := r.Intn(len(b))
	if r.Intn(2) == 0 {
		b = append(b[:p], append([]byte{b[p]}, b[p:]...)...) // Canon → Cannon
	} else {
		b[p] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func main() {
	st, err := iva.Create("", iva.Options{Alpha: 0.20})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	rng := rand.New(rand.NewSource(2009))
	const products = 5000
	for i := 0; i < products; i++ {
		f := families[rng.Intn(len(families))]
		brand := f.brands[rng.Intn(len(f.brands))]
		if rng.Float64() < 0.05 { // 5% of sellers typo the brand
			brand = typo(rng, brand)
		}
		row := iva.Row{
			"Type":  iva.Strings(f.kind),
			"Brand": iva.Strings(brand),
		}
		for name, gen := range f.numeric {
			if rng.Float64() < 0.8 { // sparse: not every field filled
				row[name] = iva.Num(gen(rng))
			}
		}
		for name, opts := range f.text {
			if rng.Float64() < 0.6 {
				row[name] = iva.Strings(opts[rng.Intn(len(opts))])
			}
		}
		if _, err := st.Insert(row); err != nil {
			log.Fatal(err)
		}
	}
	s := st.Stats()
	fmt.Printf("catalog: %d products, %d attributes, table %.1f MB, index %.1f MB\n\n",
		s.Tuples, s.Attributes, float64(s.TableBytes)/1e6, float64(s.IndexBytes)/1e6)

	searches := []struct {
		label string
		q     *iva.Query
	}{
		{
			"Canon camera near 230 (typo-tolerant)",
			iva.NewQuery(5).
				WhereText("Type", "Digital Camera").
				WhereText("Brand", "Cannon"). // user typed the typo
				WhereNum("Price", 230),
		},
		{
			"cheap over-ear headphones",
			iva.NewQuery(5).
				WhereText("Type", "Headphones").
				WhereText("Fit", "Over-ear").
				WhereNum("Price", 50),
		},
		{
			"16GB laptop, weighted toward CPU",
			iva.NewQuery(5).
				WhereText("Type", "Laptop").
				WhereTextWeighted("CPU", "Ryzen 7", 5).
				WhereNum("Memory", 16),
		},
	}
	for _, sc := range searches {
		res, stats, err := st.Search(sc.q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", sc.label)
		for i, r := range res {
			row, err := st.Get(r.TID)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %d. dist=%-7.3f Brand=%-14v Price=%-6v %v\n",
				i+1, r.Dist, row["Brand"], row["Price"], row["Type"])
		}
		fmt.Printf("  (fetched %d of %d tuples — %.1f%% pass the filter)\n\n",
			stats.TableAccesses, stats.Scanned,
			100*float64(stats.TableAccesses)/float64(stats.Scanned))
	}
}
