#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfv::ml {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m.at(0, 1), 7.0f);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2, 3.0f);
  m.fill(1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 1), 1.0f);
  m.zero();
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, ResizeZeroesContents) {
  Matrix m(1, 1, 9.0f);
  m.resize(2, 2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_FLOAT_EQ(m.at(1, 1), 0.0f);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a(1, 3);
  Matrix b(1, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    a.at(0, i) = static_cast<float>(i + 1);
    b.at(0, i) = 2.0f;
  }
  a.add(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 3.0f);
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 4.0f);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 8.0f);
  a.hadamard(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 16.0f);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(1, 2);
  Matrix b(2, 1);
  EXPECT_THROW(a.add(b), nfv::util::CheckError);
  EXPECT_THROW(a.hadamard(b), nfv::util::CheckError);
}

TEST(Matrix, SquaredNorm) {
  Matrix m(1, 2);
  m.at(0, 0) = 3.0f;
  m.at(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.squared_norm(), 25.0);
}

TEST(Matmul, KnownProduct) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Matrix out;
  matmul(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 19);
  EXPECT_FLOAT_EQ(out.at(0, 1), 22);
  EXPECT_FLOAT_EQ(out.at(1, 0), 43);
  EXPECT_FLOAT_EQ(out.at(1, 1), 50);
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  Matrix out;
  EXPECT_THROW(matmul(a, b, out), nfv::util::CheckError);
}

TEST(MatmulTransB, MatchesExplicitTranspose) {
  Matrix a(2, 3);
  Matrix b(4, 3);  // b^T is 3x4
  float v = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = v += 0.5f;
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = v -= 0.25f;
  Matrix bt(3, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) bt.at(c, r) = b.at(r, c);
  }
  Matrix expected;
  matmul(a, bt, expected);
  Matrix got;
  matmul_transb(a, b, got);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-4f);
  }
}

Matrix random_matrix(std::size_t rows, std::size_t cols,
                     nfv::util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The packed transb kernel tiles 4 rows × 2 panels (plus a 4 × 1 tile for
// an odd panel, scalar tail columns and row-at-a-time leftover rows).
// Every output lane must keep the k-ascending chain of the single-row
// kernel, so for every column count (whole, odd and ragged panel counts)
// and row count (below, at and above the tile height) the packed product,
// the unpacked product and each row computed alone agree bit for bit —
// in both kernel modes and with the parallel row split.
TEST(MatmulTransBPacked, BitIdenticalToSerialAndRowAtATimeKernels) {
  const bool simd_default = simd_kernels_enabled();
  nfv::util::Rng rng(17);
  for (const bool simd : {true, false}) {
    set_simd_kernels_enabled(simd);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      nfv::util::set_global_threads(threads);
      for (const std::size_t cols_out : {8u, 16u, 24u, 88u, 133u}) {
        for (const std::size_t inner : {5u, 33u, 70u}) {
          const Matrix b = random_matrix(cols_out, inner, rng);
          std::vector<float> packed;
          pack_transb(b, packed);
          for (const std::size_t rows : {1u, 4u, 7u, 64u}) {
            const Matrix a = random_matrix(rows, inner, rng);
            const std::string label =
                "simd=" + std::to_string(simd) + " threads=" +
                std::to_string(threads) + " C=" + std::to_string(cols_out) +
                " K=" + std::to_string(inner) +
                " rows=" + std::to_string(rows);
            Matrix serial;
            matmul_transb_serial(a, b, serial);
            Matrix got;
            matmul_transb_packed(a, b, packed, got);
            EXPECT_TRUE(same_bits(got, serial)) << label;
            matmul_transb(a, b, got);
            EXPECT_TRUE(same_bits(got, serial)) << label;
            // Each row alone runs the single-row kernel.
            for (std::size_t r = 0; r < rows; ++r) {
              Matrix one(1, inner);
              std::memcpy(one.row(0), a.row(r), inner * sizeof(float));
              Matrix row_out;
              matmul_transb_serial(one, b, row_out);
              ASSERT_EQ(std::memcmp(row_out.row(0), serial.row(r),
                                    cols_out * sizeof(float)),
                        0)
                  << label << " row " << r;
            }
          }
        }
      }
    }
  }
  nfv::util::set_global_threads(0);
  set_simd_kernels_enabled(simd_default);
}

TEST(MatmulTransBPacked, EmptyImageFallsBackAndStaleImageThrows) {
  nfv::util::Rng rng(23);
  const Matrix b = random_matrix(16, 9, rng);
  const Matrix a = random_matrix(12, 9, rng);
  Matrix expected;
  matmul_transb(a, b, expected);
  Matrix got;
  matmul_transb_packed(a, b, {}, got);
  EXPECT_TRUE(same_bits(got, expected));

  std::vector<float> packed;
  pack_transb(random_matrix(8, 9, rng), packed);  // packed for another b
  EXPECT_THROW(matmul_transb_packed(a, b, packed, got),
               nfv::util::CheckError);
}

TEST(MatmulTransAAccumulate, AccumulatesGradientShape) {
  Matrix a(3, 2);  // e.g. (batch x out)
  Matrix b(3, 4);  // (batch x in)
  a.fill(1.0f);
  b.fill(2.0f);
  Matrix out(2, 4);
  out.fill(1.0f);
  matmul_transa_accumulate(a, b, out);
  // out += a^T b, each element = 3 * 1 * 2 = 6, plus prior 1.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], 7.0f);
  }
}

TEST(AddRowVector, AddsToEveryRow) {
  Matrix m(2, 3, 1.0f);
  Matrix row(1, 3);
  row.at(0, 0) = 1;
  row.at(0, 1) = 2;
  row.at(0, 2) = 3;
  add_row_vector(m, row);
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 4.0f);
}

TEST(SumRowsAccumulate, ColumnSums) {
  Matrix m(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    m.at(r, 0) = 1.0f;
    m.at(r, 1) = 2.0f;
  }
  Matrix out(1, 2);
  out.at(0, 0) = 10.0f;
  sum_rows_accumulate(m, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 13.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 6.0f);
}

}  // namespace
}  // namespace nfv::ml
