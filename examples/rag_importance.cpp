// Data importance for retrieval-augmented inference (the Section 2.1 pointer
// to "methods specialized for retrieval augmented generation"): when answers
// are produced by retrieving the nearest documents from a corpus and
// aggregating them, the corpus documents ARE the training data — and
// KNN-Shapley values them directly, because retrieval *is* a nearest-
// neighbor model.
//
// Scenario: a support-ticket router retrieves the most similar resolved
// tickets and answers with their majority routing label. Some corpus tickets
// were archived with the wrong routing label; their importance against a
// validated query set exposes them.
//
// Build & run:  ./build/examples/rag_importance

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "nde/nde.h"

namespace {

struct Corpus {
  nde::Table table;           // ticket_text, routing label
  nde::MlDataset encoded;     // hashed text features + labels
};

Corpus MakeTickets(size_t n, uint64_t seed) {
  using namespace nde;
  const char* kBillingWords[] = {"invoice", "refund",  "charge",
                                 "payment", "billing", "receipt"};
  const char* kOutageWords[] = {"outage", "down",    "timeout",
                                "crash",  "latency", "unreachable"};
  const char* kFiller[] = {"customer", "reported", "issue",   "since",
                           "yesterday", "please",  "urgent",  "ticket",
                           "account",  "team",     "checked", "again"};
  Rng rng(seed);
  std::vector<std::string> texts;
  std::vector<int64_t> labels;
  for (size_t i = 0; i < n; ++i) {
    int label = rng.NextBernoulli(0.5) ? 1 : 0;
    std::vector<std::string> words;
    size_t length = static_cast<size_t>(rng.NextInt(8, 16));
    for (size_t w = 0; w < length; ++w) {
      double u = rng.NextDouble();
      if (u < 0.35) {
        words.push_back(label == 1 ? kOutageWords[rng.NextBounded(6)]
                                   : kBillingWords[rng.NextBounded(6)]);
      } else {
        words.push_back(kFiller[rng.NextBounded(12)]);
      }
    }
    texts.push_back(JoinStrings(words, " "));
    labels.push_back(label);
  }
  Corpus corpus;
  corpus.table = TableBuilder()
                     .AddStringColumn("ticket_text", std::move(texts))
                     .AddInt64Column("routing", std::move(labels))
                     .Build();
  ColumnTransformer encoder;
  encoder.Add("ticket_text", std::make_unique<HashingVectorizer>(64));
  corpus.encoded.features = encoder.FitTransform(corpus.table).value();
  for (size_t i = 0; i < n; ++i) {
    corpus.encoded.labels.push_back(
        static_cast<int>(corpus.table.At(i, 1).as_int64()));
  }
  return corpus;
}

}  // namespace

int main() {
  using namespace nde;

  Corpus corpus = MakeTickets(400, 42);   // The retrieval corpus.
  Corpus queries = MakeTickets(120, 43);  // Validated routing decisions.

  // Corrupt some archived routing labels.
  Rng rng(7);
  std::vector<size_t> corrupted =
      InjectLabelErrors(&corpus.encoded, 0.1, &rng);

  // Retrieval quality before debugging: top-5 retrieval + majority label.
  auto retrieval_accuracy = [&](const MlDataset& docs) {
    KnnClassifier retriever(5);
    Status s = retriever.Fit(docs);
    NDE_CHECK(s.ok());
    return Accuracy(queries.encoded.labels,
                    retriever.Predict(queries.encoded.features));
  };
  double dirty = retrieval_accuracy(corpus.encoded);
  std::printf("retrieval routing accuracy with corrupted corpus: %.4f\n",
              dirty);

  // Value every corpus document against the validated queries.
  std::vector<double> importance =
      KnnShapleyValues(corpus.encoded, queries.encoded, 5).value().values;
  std::vector<size_t> ranking = AscendingOrder(importance);
  std::printf("precision@%zu of document valuation vs corrupted set: %.2f\n",
              corrupted.size(),
              PrecisionAtK(ranking, corrupted, corrupted.size()));

  std::printf("\nworst-valued corpus documents:\n");
  for (size_t i = 0; i < 5; ++i) {
    size_t doc = ranking[i];
    std::printf("  #%zu (phi=%+.5f, label=%d): %.60s...\n", doc,
                importance[doc], corpus.encoded.labels[doc],
                corpus.table.At(doc, 0).as_string().c_str());
  }

  // Drop the flagged documents from the corpus (no retraining needed — the
  // corpus IS the model).
  std::vector<size_t> flagged(ranking.begin(),
                              ranking.begin() + static_cast<ptrdiff_t>(
                                                    corrupted.size()));
  MlDataset repaired = corpus.encoded.Without(flagged);
  double cleaned = retrieval_accuracy(repaired);
  std::printf("\nretrieval routing accuracy after dropping flagged docs: %.4f"
              " (was %.4f)\n",
              cleaned, dirty);
  return 0;
}
