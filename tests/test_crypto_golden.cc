/**
 * @file
 * Golden-value tests for the crypto and hashing primitives: SHA-256
 * against NIST CAVS / FIPS 180-4 byte-oriented vectors beyond the
 * ones in test_crypto.cc, BigUint multiply/divide/mod round-trip
 * identities on random multi-limb operands, slice-hash uniformity and
 * pinned mappings for the default machine salts, keyed-index parity,
 * and an ECDSA sign/verify + ladder-nonce-bit round trip.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/slice_hash.hh"
#include "common/rng.hh"
#include "crypto/biguint.hh"
#include "crypto/ecdsa.hh"
#include "crypto/sha256.hh"
#include "defense/defense.hh"

namespace llcf {
namespace {

// ------------------------------------------------------------- SHA-256

TEST(Sha256Golden, SingleBlockAsciiVectors)
{
    EXPECT_EQ(digestToHex(sha256(std::string("a"))),
              "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785"
              "afee48bb");
    EXPECT_EQ(digestToHex(sha256(std::string("message digest"))),
              "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d"
              "393cb650");
    EXPECT_EQ(digestToHex(sha256(
                  std::string("abcdefghijklmnopqrstuvwxyz"))),
              "71c480df93d6ae2f1efad1447c66c9525e316218cf51fc8d9ed832f2"
              "daf18b73");
    EXPECT_EQ(digestToHex(sha256(std::string(
                  "The quick brown fox jumps over the lazy dog"))),
              "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf"
              "37c9e592");
}

TEST(Sha256Golden, FipsTwoBlock896Bit)
{
    // FIPS 180-4 "long" vector: 112 bytes, forcing two blocks of
    // message before the padding block.
    EXPECT_EQ(digestToHex(sha256(std::string(
                  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijkl"
                  "mnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopq"
                  "rstu"))),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac4503"
              "7afee9d1");
}

TEST(Sha256Golden, CavsByteOrientedShortMessages)
{
    // NIST CAVS SHA256ShortMsg.rsp entries (binary, non-ASCII).
    const std::vector<std::uint8_t> one_byte{0xd3};
    EXPECT_EQ(digestToHex(sha256(one_byte)),
              "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2"
              "ba9802c1");

    const std::vector<std::uint8_t> two_bytes{0x11, 0xaf};
    EXPECT_EQ(digestToHex(sha256(two_bytes)),
              "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f"
              "072d1f98");

    const std::vector<std::uint8_t> four_bytes{0x74, 0xba, 0x25, 0x21};
    EXPECT_EQ(digestToHex(sha256(four_bytes)),
              "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc15189"
              "23ae8b0e");
}

TEST(Sha256Golden, PointerOverloadMatchesContainers)
{
    const std::string msg = "message digest";
    const auto from_string = sha256(msg);
    const auto from_ptr = sha256(
        reinterpret_cast<const std::uint8_t *>(msg.data()), msg.size());
    EXPECT_EQ(from_string, from_ptr);
}

// ------------------------------------------------------------- BigUint

/** Random value of roughly @p limbs 64-bit limbs. */
BigUint
randomWide(Rng &rng, std::size_t limbs)
{
    std::vector<std::uint64_t> words(limbs);
    for (auto &w : words)
        w = rng.next();
    return BigUint::fromLimbs(std::move(words));
}

TEST(BigUintRoundTrip, MulDivModReconstructs)
{
    Rng rng(2024);
    for (int iter = 0; iter < 50; ++iter) {
        const BigUint a = randomWide(rng, 1 + iter % 9);
        BigUint b = randomWide(rng, 1 + (iter / 3) % 9);
        if (b.isZero())
            b = BigUint(1);
        const BigUint prod = a * b;
        // Exact product: division and remainder must round-trip.
        EXPECT_EQ(prod / b, a);
        EXPECT_TRUE((prod % b).isZero());
        auto [q, r] = BigUint::divmod(prod + b - BigUint(1), b);
        EXPECT_EQ(q * b + r, prod + b - BigUint(1));
        EXPECT_TRUE(r < b);
    }
}

TEST(BigUintRoundTrip, MulModMatchesWideningMultiply)
{
    Rng rng(77);
    for (int iter = 0; iter < 50; ++iter) {
        const BigUint a = randomWide(rng, 1 + iter % 9);
        const BigUint b = randomWide(rng, 1 + (iter / 5) % 9);
        BigUint m = randomWide(rng, 1 + iter % 5);
        if (m.isZero() || m.isOne())
            m = BigUint(97);
        EXPECT_EQ(BigUint::mulMod(a, b, m), (a * b) % m);
        EXPECT_EQ(BigUint::addMod(a % m, b % m, m), (a + b) % m);
        // subMod wraps into [0, m).
        const BigUint am = a % m, bm = b % m;
        const BigUint diff = BigUint::subMod(am, bm, m);
        EXPECT_TRUE(diff < m);
        EXPECT_EQ(BigUint::addMod(diff, bm, m), am);
    }
}

TEST(BigUintRoundTrip, MulModAgainstMersennePrimeInverse)
{
    // p = 2^127 - 1 (prime), so every non-zero residue is invertible.
    const BigUint p =
        BigUint::fromHex("7fffffffffffffffffffffffffffffff");
    Rng rng(5);
    for (int iter = 0; iter < 20; ++iter) {
        BigUint a = randomWide(rng, 4) % p;
        if (a.isZero())
            a = BigUint(3);
        const BigUint inv = a.invMod(p);
        EXPECT_TRUE(BigUint::mulMod(a, inv, p).isOne());
    }
}

TEST(BigUintRoundTrip, HexAndShiftRoundTrips)
{
    Rng rng(31337);
    for (int iter = 0; iter < 30; ++iter) {
        const BigUint a = randomWide(rng, 1 + iter % 10);
        EXPECT_EQ(BigUint::fromHex(a.toHex()), a);
        const unsigned k = static_cast<unsigned>(rng.nextBelow(200));
        EXPECT_EQ((a << k) >> k, a);
    }
}

// ----------------------------------------------------------- slice hash

TEST(SliceHashGolden, UniformAcrossSlicesForFixedSalts)
{
    // The pruning algorithms assume candidate addresses spread evenly
    // over slices for any salt; a skewed hash would silently inflate
    // per-set congruence and fake success rates.
    for (std::uint64_t salt : {0x5eed5a17ULL, 0xabcdef01ULL, 0x1ULL}) {
        for (unsigned slices : {8u, 26u, 28u}) {
            OpaqueSliceHash hash(slices, salt);
            std::vector<unsigned> counts(slices, 0);
            const unsigned n = 64 * 1024;
            for (unsigned i = 0; i < n; ++i) {
                // Page-stride addresses, like candidate-pool frames.
                const Addr pa = static_cast<Addr>(i) * kPageBytes;
                const unsigned s = hash.slice(pa);
                ASSERT_LT(s, slices);
                counts[s]++;
            }
            const double expect = static_cast<double>(n) / slices;
            for (unsigned s = 0; s < slices; ++s) {
                EXPECT_NEAR(counts[s], expect, expect * 0.2)
                    << "salt " << salt << " slices " << slices
                    << " slice " << s;
            }
        }
    }
}

TEST(SliceHashGolden, PinnedValuesForDefaultSalt)
{
    // Pin the mapping of the default machine salt: a drift here would
    // silently re-shuffle every scenario's ground truth.
    OpaqueSliceHash h28(28, 0x5eed5a17);
    OpaqueSliceHash h26(26, 0x5eed5a17);
    const struct
    {
        Addr pa;
        unsigned s28;
        unsigned s26;
    } golden[] = {
        {0x0ULL, 2u, 12u},
        {0x40ULL, 8u, 14u},
        {0x1000ULL, 10u, 10u},
        {0xdeadbee000ULL, 4u, 18u},
        {0x48d159e000ULL, 13u, 5u},
    };
    for (const auto &g : golden) {
        EXPECT_EQ(h28.slice(g.pa), g.s28) << std::hex << g.pa;
        EXPECT_EQ(h26.slice(g.pa), g.s26) << std::hex << g.pa;
    }
}

TEST(KeyedIndexGolden, XorMaskParity)
{
    // Two masks -> 2 index bits; index bit i = parity(pa & mask[i]).
    const std::vector<Addr> masks = {0x40ULL, 0x80ULL};
    EXPECT_EQ(keyedIndexOf(masks, 0x000), 0u);
    EXPECT_EQ(keyedIndexOf(masks, 0x040), 1u);
    EXPECT_EQ(keyedIndexOf(masks, 0x080), 2u);
    EXPECT_EQ(keyedIndexOf(masks, 0x0c0), 3u);
    EXPECT_EQ(keyedIndexOf(masks, 0x1c0), 3u); // bit 8 not in any mask
}

// ---------------------------------------------------------------- ECDSA

TEST(EcdsaGolden, SignVerifyAndLadderBitRoundTrip)
{
    Ecdsa ecdsa(Rng{1234});
    const EcdsaKeyPair kp = ecdsa.generateKey();
    const Sha256Digest digest = sha256(std::string(
        "scenario-matrix golden message"));

    SigningRecord rec = ecdsa.signWithTrace(digest, kp.d);
    EXPECT_TRUE(ecdsa.verify(digest, rec.signature, kp.q));

    // Tampering must break verification.
    EXPECT_FALSE(ecdsa.verify(sha256(std::string("tampered")),
                              rec.signature, kp.q));
    EcdsaSignature bad = rec.signature;
    bad.s = BigUint::addMod(bad.s, BigUint(1),
                            Sect571r1::instance().order());
    EXPECT_FALSE(ecdsa.verify(digest, bad, kp.q));

    // Nonce-bit round trip: the ladder records the bits below the
    // implicit leading 1, in loop (MSB-first) order — exactly the
    // ground truth the extraction pipeline is scored against.
    ASSERT_FALSE(rec.ladderBits.empty());
    ASSERT_EQ(rec.ladderBits.size(), rec.nonce.bitLength() - 1);
    BigUint k(1);
    for (std::uint8_t bit : rec.ladderBits) {
        ASSERT_LE(bit, 1);
        k = (k << 1) + BigUint(bit);
    }
    EXPECT_EQ(k, rec.nonce);
}

TEST(EcdsaGolden, DistinctNoncesAcrossSignings)
{
    // Nonce reuse would invalidate the attack premise (and the
    // crypto); consecutive signings must draw fresh nonces.
    Ecdsa ecdsa(Rng{777});
    const EcdsaKeyPair kp = ecdsa.generateKey();
    const Sha256Digest digest = sha256(std::string("same message"));
    SigningRecord a = ecdsa.signWithTrace(digest, kp.d);
    SigningRecord b = ecdsa.signWithTrace(digest, kp.d);
    EXPECT_NE(a.nonce, b.nonce);
    EXPECT_TRUE(ecdsa.verify(digest, a.signature, kp.q));
    EXPECT_TRUE(ecdsa.verify(digest, b.signature, kp.q));
}

} // namespace
} // namespace llcf
