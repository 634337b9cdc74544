"""Chain and conditional files pinned by their sha256 digests.

Each digest is of the text `chain_to_text` or `conditional_to_text`
writes for one seeded input, so a change to the chain types, the builder
or the writer that moves a single byte of any file fails here.  The
inputs are the Han chains up to L=8 and `yz_chain`, and
`conditional_chain` with N=1 and N=2, on weight vectors with zeros, ties
and a dominant weight.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from smdc.covers import chain_to_text, conditional_chain, conditional_to_text, han_chain, yz_chain

F = Fraction


def _weight_vectors():
    """Hand-picked vectors, then seeded ones in the same three styles."""
    vectors = [
        (F(3), F(1), F(1)),
        (F(5), F(1), F(1)),
        (F(1), F(1), F(1), F(1)),
        (F(0), F(0), F(1)),
        (F(4), F(4), F(1), F(1)),
        (F(3), F(0), F(2), F(0), F(1)),
        (F(10), F(1), F(2), F(3)),
        (F(1, 2), F(1, 3), F(1, 3), F(1, 6), F(0)),
    ]
    rng = random.Random(2011)
    for L in (3, 4, 5, 6, 6, 7):
        # zeros
        vectors.append(tuple(F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(L)))
        # ties
        vectors.append(tuple(F(rng.choice((1, 2, 2, 3))) for _ in range(L)))
        # one dominant weight
        lam = [F(rng.randint(1, 3)) for _ in range(L)]
        lam[rng.randrange(L)] = F(rng.randint(10, 40))
        vectors.append(tuple(lam))
    return vectors


def _texts():
    """(label, file text) for every pinned input."""
    for L in range(1, 9):
        yield f"han L={L}", chain_to_text(han_chain(L))
    for lam in _weight_vectors():
        label = ",".join(map(str, lam))
        yield f"yz {label}", chain_to_text(yz_chain(lam))
        for n in (1, 2):
            if n < len(lam):
                yield f"cond N={n} {label}", conditional_to_text(conditional_chain(lam, n))


CASES = list(_texts())

DIGESTS = {
    "han L=1": "1e9c6b20285bd16e8a7daf08d1a8df8051eb94b92da0931aa7d2332752df147d",
    "han L=2": "fcf9dd43f2fef6bdbdd2f6942171f4d5dcedfff1401af6c3e1bb15a8c56301c7",
    "han L=3": "076e50ecd642b9d51c03b1c8e227609e8a6cb7c28a7736c0d0f3d3263e1eb459",
    "han L=4": "1b5e14b8930716d77ec02f1a4d529df42448688b85ec9afdf59c68770305e187",
    "han L=5": "9d45bd6bc32b2f73a578d8151491477c5623af7d57aae036139ee9e251609e08",
    "han L=6": "4c4ca2859625ded6aa37f7f0628ad05420411ad8f23ae98d1ac4b98d9696c10f",
    "han L=7": "330bc54ef744dce7b887990ccf768f1726878b71c66f76d8fce893e819641ca1",
    "han L=8": "39b1bccf2cd10752758a29eff52864795c33424ade20823a739bf36b8f541e77",
    "yz 3,1,1": "34159a7ccbeb5d0a98e6674ee0fa6677a31c8e3d848b64730e0f0b5f6f41bf49",
    "cond N=1 3,1,1": "aa9fbd8b2eaca6661fd4e4d7ca65ab32dd49e52a0522d7546a981ee23113cea5",
    "cond N=2 3,1,1": "b0aba771e3b685b19dcba3776315766c0f075e7d26f381dfc3990c503ba12ccf",
    "yz 5,1,1": "09c748c12f695df08d87d11e7134f3a6714db46a0a9d410c9dd3c921cb974e53",
    "cond N=1 5,1,1": "7e45a7c7f77b91650097308a5558e2224ac537e519c54eee3cbdd79f285decfa",
    "cond N=2 5,1,1": "b5f66a5ae4cdd8c1cc0aff405b393bdf65ee0cd568c5dbeb450a920e6db8ff47",
    "yz 1,1,1,1": "7c161cf0025c688db3289b7644940a64ebcf3d13a78fc65207bd7ba366713d30",
    "cond N=1 1,1,1,1": "7847cdb9cf4ff649825ac0a9c957381da4538125032d329c8f967df5f21137e5",
    "cond N=2 1,1,1,1": "bbf703d1b297633264bb1df0ab13e43dd25fbfa5a57d46bbc1f881cb78cfa84c",
    "yz 0,0,1": "30269bdb296186e5c66ce7c1012b8776b689133b2266e3b97de24dcaa4aeee4a",
    "cond N=1 0,0,1": "b6345d00bbba3f70d46f23586eeb4b9e6e15df6b646ff7183631cb5058443ea0",
    "cond N=2 0,0,1": "92ec516a1b0d616039d4530e741904ff1a8013bcaf2ca3ce8fc0d05d386bf3eb",
    "yz 4,4,1,1": "cf6874528b380b9b94d03fa6805495cd5a02fa10d829060e5ad273b256b2f343",
    "cond N=1 4,4,1,1": "62dd41e7631658676ede78408c889d679e9140299fcb4921e57f5175ae7ca8e9",
    "cond N=2 4,4,1,1": "24c9948d8bd03763fce1722c6ba9e5a3564eedbf74295e8c239c2a4fe835e539",
    "yz 3,0,2,0,1": "20e577d4330b047b1c36d8dba4caa0c5936bbbb44120c427cfe5dd3450248c1e",
    "cond N=1 3,0,2,0,1": "f09de7d6177787b4d8a3718c597566f8efe2769ef405ef45b6e6ffb2e5de5923",
    "cond N=2 3,0,2,0,1": "4e339c2b9f69f4082742295616598296cdd56b1630fc6d0c8bc84bc93852d7c4",
    "yz 10,1,2,3": "af108be2afce7d312958791a2708df07dce7b2a86282078c07367b9b98b21e8c",
    "cond N=1 10,1,2,3": "4399ab54b1b346e19eaef32d42b1747178c12401f80fa028ec0a198c979c9104",
    "cond N=2 10,1,2,3": "7bf3691d2ebe92acef12dd5482daa64215f9805d004a9c1f66b5e217b7781372",
    "yz 1/2,1/3,1/3,1/6,0": "2d564266c2dc1df8bcc1fd55d9a57478e98dbe796a619685359723af97bb810d",
    "cond N=1 1/2,1/3,1/3,1/6,0": "528eec704fe3ea6f74b6e1f328ba9a39366b3d89b46b01f79ba80c17378b8bdf",
    "cond N=2 1/2,1/3,1/3,1/6,0": "3e8c111628259fad15053969caea2666e1d6f988a200ddbc5314c1fb8124c7e8",
    "yz 4/3,1/2,1/2": "5d82ae722dfc54baeeaae890ce554b399f7efa8032a3109e3b916259feee0df5",
    "cond N=1 4/3,1/2,1/2": "7030be2db7934865ef2e7e734294c27c24462d36d6f419dcda0874d82da567cf",
    "cond N=2 4/3,1/2,1/2": "abec3a7f01ce5c9b4656a43ed367f2929347c0676eb0fc0572310ad564159720",
    "yz 1,2,1": "2a269f742100ab92381731ea181447f198358787eca9d1d1dd19baad4cc2b203",
    "cond N=1 1,2,1": "f2e96a1084e94ff08d900955cdb808a875f60b4bdd75700b98f5355e52e4d445",
    "cond N=2 1,2,1": "cb50ab4921afc5f4c673c7f1a8c606f56fa7d949e9186cae6cebca60a55c2bec",
    "yz 32,1,1": "fdc3fa3afa5546762e057ed499370fbf17eb040745aa6d31e86baf4d27f32820",
    "cond N=1 32,1,1": "5189eeea223886b8f9deddb376d546593670cf28f417324e329f5ef0fecb6239",
    "cond N=2 32,1,1": "1d30b37be9f765aeeb2212621560991c78d2c57ba49d156a0a685caa5678c366",
    "yz 0,1,2,4": "0502f2ea148924047b78cb5feb44a426f56005639975e2cc6d87a28cd4254bc2",
    "cond N=1 0,1,2,4": "ab6137d0a0fdf9ba15036311db59edc4839893cc8891367aa49a7d5539514dd8",
    "cond N=2 0,1,2,4": "40ac5b4ecb050c9c90799c6062061d4203c9d3ebbefaa9f0d6c2b5998d9eb5c1",
    "yz 1,2,3,2": "e5ba01cf1a870d5b306966194e8e9fc755ffd81749ec5700d0be744d893a0655",
    "cond N=1 1,2,3,2": "066ee39c7a9a6485a6327c938a704b498d3eeef1ff79b70180b6bd5190f0bdd2",
    "cond N=2 1,2,3,2": "7d553d7007590217d61ddf1356e7795ced83fe4cc47c602756a051e691a7ad08",
    "yz 2,19,3,3": "2071a05f605497c6bad03d9b348b9f21de428c97d9af678b41ef85ceb1bfecfd",
    "cond N=1 2,19,3,3": "8868f668b1a7d945badcaa6655b6f0111032844c8b8cb0946b688608a6a68acc",
    "cond N=2 2,19,3,3": "7b05870bc705d580fc8dd49632558862bdda4ec26ac22f55798c15f8b43795d2",
    "yz 4,4,4/3,4,1/3": "d4692f83d238c22ab7f9d5e74d523759c39d59ac140bfabdfd13e5ae77a7b7d3",
    "cond N=1 4,4,4/3,4,1/3": "574ff762a836d486a9b78e54a6e5f23bc0eb4d9e8e9564b694e4b66325785863",
    "cond N=2 4,4,4/3,4,1/3": "92ce74555d4299f1eb38d9dfe9ff17401a9e61003e6b37454716d853216db329",
    "yz 1,3,3,3,3": "62f30c274d1d3c0a2ff76ebcf057c8235f2c1542fa33093a388282c5fd8078e8",
    "cond N=1 1,3,3,3,3": "822e3c5e7e9c661a74eda9c6d37e94ce8df837e3486f74bcfa6ad6fa160855f7",
    "cond N=2 1,3,3,3,3": "f83223d4add32b4b4cda2bcb00311a32ce94c83e190af5b3c8b8b939b9b9ce0b",
    "yz 2,34,3,1,2": "68f85a422f19fa1ec50cf24f280b2130072c33e6ff87df54b291f596f1d3c127",
    "cond N=1 2,34,3,1,2": "05a4b8c8229d72f857258da5db3fde7e0f541d0f57fd22ffde7e6e10a93ee768",
    "cond N=2 2,34,3,1,2": "782cd1acd49b2a6e4a894e1d5751e7bc4091c1da11c5617ea6f448e72f69264d",
    "yz 1/3,2,0,1/2,4,0": "a48612ffeaf7283dffebe325e212c8a06fa7ef1a3773abef30e4624db3919bae",
    "cond N=1 1/3,2,0,1/2,4,0": "d65261d13dd62593912fb766b0dad1a4b352eed9896356850e5329e1b3d05470",
    "cond N=2 1/3,2,0,1/2,4,0": "fa8f6c252bc8b1365bedd2e302343f8429b3ab60d5765921f7c62c19b0e6b8f3",
    "yz 2,3,2,2,1,2": "cdee3a2ea982e5a54b0880acb0b7a478153065c93c28420fee31e83bac8a4438",
    "cond N=1 2,3,2,2,1,2": "b0415fd704f28ac281daf5497e12d13ed00d75637d02334b02068915e0bd5e06",
    "cond N=2 2,3,2,2,1,2": "5e0c49baa37e85e9eba83d3623dc837ecacd35fbe523ab0edb67d530121c5ee9",
    "yz 3,2,3,1,3,22": "f29a60d4e46ecd502fb51acf89793df147f479d6bc3f0fe32991bf665c7a2dfb",
    "cond N=1 3,2,3,1,3,22": "cd275cd93bf3056061fc23aef4ea27394077493d9af53ef9f8ba6c0590a2f180",
    "cond N=2 3,2,3,1,3,22": "9e6636c784d0805481d77049a564cba8ac6ef6b42250fbb49f199a2cb632b3a2",
    "yz 4,2/3,3/2,3/2,1/2,0": "02a4c6d1871bb5e335161ac4cac7f73e7d74c89472f1115d22964530eb5f3039",
    "cond N=1 4,2/3,3/2,3/2,1/2,0": "c872c2867015f57b11500fba3c95ede28b85857a324105c7d55b2564ccb4d485",
    "cond N=2 4,2/3,3/2,3/2,1/2,0": "d9287ff8319f18793962ecb09a887b86c7d8ddfcfb2ec01e4738395d072b87d0",
    "yz 1,2,2,2,2,3": "c627ca30f72e77b2cfadd7bc3b7cd9d07d60c24a2f51a2b0e4e8ae0dba1e7201",
    "cond N=1 1,2,2,2,2,3": "e94808a8a6c47c0be9664503b78a94d4aa1b18b01c9a523986759879d6fc86c5",
    "cond N=2 1,2,2,2,2,3": "e974b6fcaba43da0e4be2eca9a354c0f4cc1175bc4b50c09e3e8ba49d431ce1e",
    "yz 3,2,2,3,1,30": "a00ad17ddcfcf4274dd65105dc42c44a0d5b9e14450ff83fea93a2c41489c539",
    "cond N=1 3,2,2,3,1,30": "b041626c800ce46f7537b591bca590203156f5a1abff55913b6eee967db1a685",
    "cond N=2 3,2,2,3,1,30": "01680f171b277742d181d8dbdc4cd0c08af5957158c3565c1c0cf7a110f89661",
    "yz 2,0,3/2,2,4,2,1/3": "37d2b2be4afb4e9c73669fbc99575883d4e1029ec0d1ac309e0cc3670ba87959",
    "cond N=1 2,0,3/2,2,4,2,1/3": "0745288b9f1ced3c607630885936e730fc467eb3d65ef9ed7cd693391d3dfa45",
    "cond N=2 2,0,3/2,2,4,2,1/3": "bb9471d8bd59d95f5bbf057584cdd4200b23b97e53bfd2c2b37f67c5c9bb79ab",
    "yz 1,2,2,2,2,2,1": "e6a7a67c9c6417f60b0c6961db4f8d74d684ce2459851234475d3e1d9719a17d",
    "cond N=1 1,2,2,2,2,2,1": "60a84bd5e2c8b30f8639ac8b14147b40f602c05ecaec9f88530dc7323454affe",
    "cond N=2 1,2,2,2,2,2,1": "25ebab3a3bb5951c70dda06b8a62a1179c95bd62727f951c7348ed1bf2b60797",
    "yz 3,1,3,35,1,2,1": "ac8ff1deb7cc2ff08ea92126d964d08ba2936bf13c335fb8c41c016152614eb9",
    "cond N=1 3,1,3,35,1,2,1": "f609fc169198703c6388bd11acf4ac3df73241498a06fa5cdbe908bf4ba3039b",
    "cond N=2 3,1,3,35,1,2,1": "dd38e9fbe7fd14d5f66f9ec803bf060d6a7b5c47dc2e259947b9c547067afa1a",
}


def test_every_input_is_pinned():
    assert [label for label, _ in CASES] == list(DIGESTS)


@pytest.mark.parametrize("label,text", CASES, ids=[label for label, _ in CASES])
def test_file_digest(label, text):
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[label]
