// Bios: reproduce the paper's §IV-E bio analysis — Tables I and II (most
// popular bigrams and trigrams in verified-user biographies) and the
// Figure 4 unigram word cloud — over a synthesized bio corpus.
//
//	go run ./examples/bios
package main

import (
	"fmt"
	"log"

	"elites/internal/text"
	"elites/internal/twitter"
)

func main() {
	platform, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(10000))
	if err != nil {
		log.Fatal(err)
	}
	dataset, err := twitter.DatasetFromPlatform(platform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analyzing %d english verified bios\n", len(dataset.Profiles))

	uni := text.NewCounter(1)
	big := text.NewCounter(2)
	tri := text.NewCounter(3)
	for _, bio := range dataset.Bios() {
		toks := text.Tokenize(bio)
		uni.Add(toks)
		big.Add(toks)
		tri.Add(toks)
	}

	fmt.Println("\nTable I: most popular bigrams (paper: 'Official Twitter' 12166, ...)")
	fmt.Printf("  %-32s %s\n", "Bigram", "Occurrences")
	for _, g := range big.Top(15) {
		fmt.Printf("  %-32s %d\n", g.Phrase(), g.Count)
	}

	fmt.Println("\nTable II: most popular trigrams (paper: 'Official Twitter Account' 5457, ...)")
	fmt.Printf("  %-32s %s\n", "Trigram", "Occurrences")
	for _, g := range tri.Top(15) {
		fmt.Printf("  %-32s %d\n", g.Phrase(), g.Count)
	}

	fmt.Println("\nFigure 4: word cloud of most frequent unigrams")
	fmt.Print(text.RenderASCII(text.BuildCloud(uni.Top(30)), 72))
}
