#include "rs/reed_solomon.h"

#include <sstream>

#include "common/check.h"

namespace aec::rs {

ReedSolomon::ReedSolomon(std::uint32_t k, std::uint32_t m)
    : k_(k), m_(m), parity_rows_(gf::cauchy_parity_matrix(k, m)) {
  AEC_CHECK_MSG(k >= 1 && m >= 1, "RS(k,m) requires k >= 1 and m >= 1");
}

std::string ReedSolomon::name() const {
  std::ostringstream os;
  os << "RS(" << k_ << "," << m_ << ")";
  return os.str();
}

std::vector<Bytes> ReedSolomon::encode(
    const std::vector<Bytes>& data) const {
  AEC_CHECK_MSG(data.size() == k_,
                "encode: expected " << k_ << " data blocks, got "
                                    << data.size());
  const std::size_t block_size = data.front().size();
  for (const Bytes& b : data)
    AEC_CHECK_MSG(b.size() == block_size, "encode: ragged block sizes");

  std::vector<Bytes> parities(m_, Bytes(block_size, 0));
  for (std::uint32_t row = 0; row < m_; ++row) {
    // First column overwrites (mul_slice skips reading the zeroed
    // parity buffer); the rest accumulate.
    gf::mul_slice(parities[row].data(), data[0].data(), block_size,
                  parity_rows_.at(row, 0));
    for (std::uint32_t col = 1; col < k_; ++col) {
      gf::axpy_slice(parities[row].data(), data[col].data(), block_size,
                     parity_rows_.at(row, col));
    }
  }
  return parities;
}

std::optional<std::vector<Bytes>> ReedSolomon::decode(
    const std::vector<std::optional<Bytes>>& stripe) const {
  AEC_CHECK_MSG(stripe.size() == stripe_blocks(),
                "decode: stripe must have " << stripe_blocks()
                                            << " entries");
  // Fast path: all data blocks survived.
  bool data_intact = true;
  for (std::uint32_t i = 0; i < k_; ++i)
    if (!stripe[i]) {
      data_intact = false;
      break;
    }
  if (data_intact) {
    std::vector<Bytes> data;
    data.reserve(k_);
    for (std::uint32_t i = 0; i < k_; ++i) data.push_back(*stripe[i]);
    return data;
  }

  // Pick the first k available blocks and build the corresponding rows of
  // the generator [I; C].
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < stripe.size() && chosen.size() < k_; ++i)
    if (stripe[i]) chosen.push_back(i);
  if (chosen.size() < k_) return std::nullopt;  // > m erasures

  const std::size_t block_size = stripe[chosen.front()]->size();
  gf::Matrix rows(k_, k_);
  for (std::size_t r = 0; r < k_; ++r) {
    const std::size_t src = chosen[r];
    if (src < k_) {
      rows.set(r, src, 1);
    } else {
      for (std::uint32_t c = 0; c < k_; ++c)
        rows.set(r, c, parity_rows_.at(src - k_, c));
    }
  }
  const auto inverse = rows.inverted();
  AEC_CHECK_MSG(inverse.has_value(),
                "RS decode: Cauchy submatrix must be invertible");

  std::vector<Bytes> data(k_, Bytes(block_size, 0));
  for (std::uint32_t out = 0; out < k_; ++out) {
    gf::mul_slice(data[out].data(), stripe[chosen[0]]->data(), block_size,
                  inverse->at(out, 0));
    for (std::uint32_t in = 1; in < k_; ++in) {
      gf::axpy_slice(data[out].data(), stripe[chosen[in]]->data(),
                     block_size, inverse->at(out, in));
    }
  }
  return data;
}

}  // namespace aec::rs
