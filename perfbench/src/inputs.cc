#include "inputs.h"

#include "datagen/generators.h"

namespace perfbench {
namespace {

enum Family { kShake = 0, kDblp = 1, kPubs = 2 };

std::string Generate(int family, size_t bytes, uint64_t seed) {
  switch (family) {
    case kShake:
      return xsq::datagen::GenerateShake(bytes, seed);
    case kDblp:
      return xsq::datagen::GenerateDblp(bytes, seed);
    default:
      return xsq::datagen::GenerateRecursivePubs(bytes, seed);
  }
}

// Distinct generator seeds per document, all fixed by the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t index) {
  return seed * 1000003ull + index * 7919ull + 1;
}

}  // namespace

StreamInputs MakeStreamInputs(uint64_t seed) {
  constexpr size_t kCorpusBytes = 2u << 20;
  StreamInputs in;
  const char* names[] = {"shake", "dblp", "pubs"};
  for (int family : {kShake, kDblp, kPubs}) {
    in.corpora.push_back(Doc{names[family], family,
                             Generate(family, kCorpusBytes,
                                      SubSeed(seed, family))});
  }
  in.queries = {
      {"//SPEECH[LINE%love]/SPEAKER/text()", kShake},
      {"//ACT//SPEECH[SPEAKER]/LINE/count()", kShake},
      {"//inproceedings[author]/title/text()", kDblp},
      {"//article[year>1995]//author/text()", kDblp},
      {"//pub[year]//book[@id]/title/text()", kPubs},
      {"//pub[pub]//book[@id]/title/text()", kPubs},
      // pub elements carry no text of their own, so the predicate is
      // false, and only the end of the document decides it: every title
      // stays buffered until then. Its peak is a sum over the whole
      // corpus, so it barely moves from seed to seed.
      {"//pubs[pub%draft]//title/text()", kPubs},
  };
  return in;
}

ServeInputs MakeServeInputs(uint64_t seed) {
  constexpr int kDocsPerFamily = 8;
  constexpr size_t kDocMinBytes = 16u << 10;
  constexpr size_t kDocSpanBytes = 32u << 10;
  ServeInputs in;
  uint64_t index = 100;
  for (int family : {kShake, kDblp, kPubs}) {
    for (int i = 0; i < kDocsPerFamily; ++i, ++index) {
      uint64_t sub = SubSeed(seed, index);
      // Sizes are fixed by position, not by the seed, so the working set
      // and the largest buffer stay the same from seed to seed.
      size_t bytes = kDocMinBytes + kDocSpanBytes * i / kDocsPerFamily;
      std::string name = "d";
      name += std::to_string(in.docs.size());
      in.docs.push_back(Doc{std::move(name), family, Generate(family, bytes, sub)});
    }
  }
  in.queries = {
      // XSQ-NC: no closure axis.
      {"/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()", kShake},
      {"/dblp/inproceedings/title/text()", kDblp},
      {"/dblp/article[year>1995]/title/text()", kDblp},
      {"/pubs/pub/book/title/text()", kPubs},
      // XSQ-F: closure plus predicates, one aggregate.
      {"//SPEECH[LINE%love]/SPEAKER/text()", kShake},
      {"//ACT//SPEECH[SPEAKER]/LINE/count()", kShake},
      {"//inproceedings[author]/title/text()", kDblp},
      {"//pub[year]//book[@id]/title/text()", kPubs},
      {"//pubs[pub%draft]//title/text()", kPubs},
  };
  // Selective or aggregate standing queries: a few EVENT frames per
  // publish, so fan-out keeps up at every ladder rate and never sheds.
  in.standing_queries = {
      "//SPEECH[LINE%love]/SPEAKER/text()",
      "/PLAY/ACT/SCENE/TITLE/text()",
      "//inproceedings[author]/title/count()",
      "/dblp/article[year>2000]/title/text()",
      "//pub[year]//book[@id]/title/count()",
      "//book[price<10]/title/text()",
      "//LINE/count()",
      "//year/count()",
  };
  for (int family : {kShake, kDblp, kPubs}) {
    for (int i = 0; i < 2; ++i, ++index) {
      in.publish_docs.push_back(
          Generate(family, 12u << 10, SubSeed(seed, index)));
    }
  }
  return in;
}

}  // namespace perfbench
