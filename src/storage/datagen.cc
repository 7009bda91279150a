#include "storage/datagen.h"

#include <array>
#include <charconv>
#include <cmath>

#include "common/random.h"

namespace gqp {
namespace {

// The 20 standard amino-acid one-letter codes.
constexpr char kAminoAcids[] = "ACDEFGHIKLMNPQRSTVWY";
constexpr size_t kNumAminoAcids = sizeof(kAminoAcids) - 1;

}  // namespace

std::string OrfKey(size_t i) {
  // "ORF%05zu" without a printf: pad to five digits, wider keys keep all.
  char digits[20];
  const char* end = std::to_chars(digits, digits + sizeof(digits), i).ptr;
  const size_t width = static_cast<size_t>(end - digits);
  std::string key = "ORF";
  key.append(width < 5 ? 5 - width : 0, '0').append(digits, width);
  return key;
}

TablePtr GenerateProteinSequences(const ProteinSequencesSpec& spec) {
  auto schema = MakeSchema({{"orf", DataType::kString},
                            {"sequence", DataType::kString}});
  auto table = std::make_shared<Table>("protein_sequences", schema);
  Rng rng(spec.seed);
  for (size_t i = 0; i < spec.num_rows; ++i) {
    std::string seq(spec.sequence_length, '\0');
    for (char& letter : seq) {
      letter = kAminoAcids[rng.NextBelow(kNumAminoAcids)];
    }
    // Appends cannot fail here: arity always matches the schema.
    (void)table->AppendValues({Value(OrfKey(i)), Value(std::move(seq))});
  }
  return table;
}

TablePtr GenerateProteinInteractions(const ProteinInteractionsSpec& spec) {
  auto schema = MakeSchema({{"orf1", DataType::kString},
                            {"orf2", DataType::kString}});
  auto table = std::make_shared<Table>("protein_interactions", schema);
  Rng rng(spec.seed);
  for (size_t i = 0; i < spec.num_rows; ++i) {
    const bool matches = rng.NextBool(spec.match_fraction);
    const size_t orf1_index =
        matches ? rng.NextBelow(spec.num_orfs)
                : spec.num_orfs + rng.NextBelow(spec.num_orfs + 1);
    const size_t orf2_index = rng.NextBelow(2 * spec.num_orfs);
    (void)table->AppendValues(
        {Value(OrfKey(orf1_index)), Value(OrfKey(orf2_index))});
  }
  return table;
}

double ShannonEntropy(const std::string& s) {
  if (s.empty()) return 0.0;
  std::array<size_t, 256> counts{};
  for (const char c : s) counts[static_cast<unsigned char>(c)]++;
  double entropy = 0.0;
  const double n = static_cast<double>(s.size());
  for (const size_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

}  // namespace gqp
