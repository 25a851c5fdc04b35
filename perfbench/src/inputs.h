// Workload inputs, all derived from the workload seed: the datagen
// corpora, the query sets, and the serving documents. The program
// under test only ever sees these generated bytes.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Doc {
  std::string name;
  int family = 0;  // index into the family list of its workload
  std::string xml;
};

struct QuerySpec {
  std::string text;
  int family = 0;  // the document family it is meant for
};

// stream-xsqf: one large SHAKE, DBLP and recursive-pubs corpus each,
// and closure+predicate queries (all run on XSQ-F; one aggregates).
struct StreamInputs {
  std::vector<Doc> corpora;
  std::vector<QuerySpec> queries;
};
StreamInputs MakeStreamInputs(uint64_t seed);

// serve-mixed / cluster-rf2: small documents of the same three
// families, queries spanning XSQ-NC and XSQ-F, standing queries for
// pub/sub, and a separate set of documents to publish.
struct ServeInputs {
  std::vector<Doc> docs;
  std::vector<QuerySpec> queries;
  std::vector<std::string> standing_queries;
  std::vector<std::string> publish_docs;
};
ServeInputs MakeServeInputs(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
