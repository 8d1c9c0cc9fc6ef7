"""The bit contract: outputs whose bytes must not move unnoticed.

Each digest is the sha256 of one output, recorded on Linux x86-64 with
the numpy named by ``NUMPY_VERSION``: the seed-42 ``qnlse verify``
report as JSON and CSV, the frames of every march of the benchmark's
``march_plan``, the ``--out`` file (or csv frame directory) of every
CLI row of ``CLI_DIGESTS``, and the stdout of every row of
``STDOUT_DIGESTS``.  A change that moves these bytes on purpose prints
the current digests of all four, in this file's own literal format,
with

    PYTHONPATH=src python tests/test_bit_contract.py

pastes them over the recorded ones, and says which moved, and by how
much.

With another numpy the test skips: numpy's ``log``, ``exp`` and complex
arithmetic are not correctly rounded, and may round a last bit
differently from one release to the next.  A digest that differs there
would not show that this program changed, only that the digest needs
recording for that numpy.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qnlse.cli import main
from qnlse.integrators import GridSpec, manufactured_field, propagate, sample_field
from qnlse.solutions import FreeParticleSpec, SolutionKind

BENCH = Path(__file__).resolve().parents[1] / "bench"

NUMPY_VERSION = "2.4.6"

VERIFY_DIGESTS = {
    "json": "64b31d62f19b6ee79606c00e87ed4420d1f3fcb6b86b1f6d3df7c37b7e5c88db",
    "csv": "57ce965241a3dcb5ee65e47e486db2d585935da4b86ab7374e37199dde66a1f1",
}

# sha256 of ``Trajectory.values.tobytes()`` for each march of the
# benchmark's ``march_plan(seed)``, in plan order
MARCH_DIGESTS = {
    7: [
        "5440cf3dce866132b2203f670bed0c2427c39f93f518bbbac4ddd8a25a4f5bcc",
        "b9c795ea076ae16d88c500ae8ec7975747a80fd4fa4730336504f3df9f64e69a",
        "69cac8976d47b35c20b3886083f3c96b3d13e7d862b0255a44c899e409f515f6",
        "fde301c9831c768d207fc9586b7b53107037cfc84b6124227e847207a4f37365",
        "c89f81db8fb98d32b522320053cb612d10fed9568a51b1c4a650976dd36e3bed",
        "e625cc5af3c1a97a79d450bbc65f23fc5377c050f02763c4def242d3395dff36",
        "ac014ae5ab177d169056447dca74dc782d28aaeb111d8c63513224f84a324e8c",
        "928e917d31be44daf928a786f3aca15543d856d4b59aa07a40201fdb521fa027",
        "834e51d13c147db779c2d4e8742b28bbe6b39ea3fbeab7b7e0c0c5e7d3e4467e",
        "2494127931eb51dfe2682a2ee0871304c99cc818b00a11adbe368a67441be283",
        "1845b53c63518342341d5240af6290d37075852830a0d6f9179ce0667fc833eb",
        "1845b53c63518342341d5240af6290d37075852830a0d6f9179ce0667fc833eb",
    ],
    11: [
        "47702215bf24320430755286f4c76b483ccea19ecc3d7c2944b2057e81247090",
        "909ca62a81864e793631395c7e4ae8f25bcd76c95975b6f14309c9ca4973fbec",
        "9914cc61f4b8d9503f0d946c9c1d952ee5ee1d04b1d424deea9c801b5c212f08",
        "4ad2387c34f498ff07b3567e1010dc511463a99deae5913bf06d4214766b3aa6",
        "2bdf0d1916df233b958e50f2fb740c40b48bb20b2a9bf2f3d3f6aa44bf5450e8",
        "38e69aa6dfce9b1a22cb03f9c8539f91a7883c736788f24f040ebdb4a922c0bd",
        "5c62ea34a54391c9f6456d2f6ed77e36d0f88e8e786d850476df5401d72478d3",
        "bcc0f0e4874dc87550eb1ea981cc5c40fcd81659d5b9e9637d53fac2993e7a76",
        "6cf7a1e8c2447d887c8618af3a206c99a36ddc43e3603d72d03ccdc77a53050b",
        "06d72ee353bd93eb77ccd3aa8cfb254803ca580f3f83a5639752e2d95c5934a1",
        "e00df51d593eac089d26cbb3048b7ac448d5b208073603ffd7b793f82ab6ae91",
        "e00df51d593eac089d26cbb3048b7ac448d5b208073603ffd7b793f82ab6ae91",
    ],
}


# sha256 of the --out file of each CLI row (of a csv frame directory: its
# file names and bytes in name order), run at every q of CLI_QS (a row
# that names its --q, and limit, take no other) and in every format:
# (q, json), (q, csv), ... in CLI_QS order, and svg after csv for
# propagate.  The rows cover every residual tag on its own closed form,
# one cross pairing, the ODE and PDE convergence studies of both
# equations, compare, limit, a short march of both equations and the
# benchmark's frames-out inputs (q = 1.03, 401 points, 300 steps).  A run
# that writes no file is pinned by its exit code and its stderr: the PDE
# study of the q-power equation at q = 0.7, whose finest level marches
# past the horizon of its grid, so its errors do not fall and it is
# refused.
CLI_QS = ("0.7", "1.0", "1.5")
CLI_DIGESTS = {
    "residual --equation new --form field --method analytic": (
        "ec628e72ee413242d62028acb61f0fcbe2e6b5a0f6ce84e00f41e237b6cd5523",
        "a4d1c3292b4b3106598d9d91023bd42babfdd56c04937e731123a7dc015cf7ac",
        "607339fe220314699ac7784445c645b42bff6b3fde6a9d8a90cd02619cdffd89",
        "57bf64fe4db39890dd517c2d58a6abc3d99e827654f63c6c4b600ed83b49fa91",
        "948ef741c09af1c10c792fa6fe2e5441ac54872c55cd87610c74079378a608f8",
        "06446a9c690743af592e4819c7c930682848f2a116d3c4bcfc948be2e6263efb",
    ),
    "residual --equation new --form field --method fd": (
        "e114a76d94bbc9c3f8844128f37d1f3b061cf8a833d3eda507996e0df577c09d",
        "04fa9d230d71d30f26cd53e2e7307770d4d979816f9739a09d0fec2b0b10b5db",
        "ec0fd5e9ca1f6c98d51ebbc43c0359ed6ef0e3a5c00268aba16fcda5afd14c63",
        "d48c56f420d09c28a2aa018fd895aed2ae8194efd6ee91508abfd29785b2eca4",
        "1d0cd6fb3e9ad72bf580e2fabe4efbdbf20ee0d47519a68588bfe8af1f98aca7",
        "412df314f2d8b75a44144214179075f137651388d8a525b1adb28458aab4983d",
    ),
    "residual --equation new --form phi --method analytic": (
        "add966c3fc795aa8ee86992aaa2d6f0ca2d7a428ac24edc82f4d26759ede01ff",
        "e60a788f787597db9c1bb4339e48065409e1be3d80f2cdf9ff980450e2452f31",
        "b29fc425aad05e402ad4aee6461a525df0d1a101841b3c712b8908c5638d2054",
        "f8c5f9891dec06c8ea9afb4093cd65e00690e54731d4824008bca1c0bfa18dd9",
        "6a492b6122c9ba6166452b927baf709b38e04a6f3c8b9c61092f08ebc884bf2b",
        "85b8f9b0bd249fe40b4384006ed4b3931afb7aa8553cb3a6c29a6565e4b60fd8",
    ),
    "residual --equation new --form phi --method fd": (
        "20d9480fc8c6de4347acc071686ab525c6ac4b231efece91fc7752ceb2140fc3",
        "a52b9750513abe533ff8a7cdd856e33ebf7438daf5a9f1c16f01433a139bf7c0",
        "7f075d9b0c349b6388087ac29ee22b97a298f3013547a2be9c5e61dfcd8400f2",
        "07c166c7825673e69e406de141aebd1403ea3aa2f8180621f8f16d4d6217e920",
        "a41d8cbb8ce15eafcb59cb1172c1be69f27eb1466bf4607d4fea1c02d44dc6db",
        "b6f0b040a568e63635cff7f5f35785337b5ed7c9103234e11a30d8898eb65270",
    ),
    "residual --equation nrt --form field --method analytic": (
        "61f93391b88e55646e7baa9368e1645c99bda59143a545b0c6884da29c1c15de",
        "c19b6b7d4fbb14954809542d059cbe5e473dd297f03d24c1dee1764b0d4302fe",
        "60b01e3a93c5036c11ef4e14a0bd3343edf97118271484e1a3f8b752e9811309",
        "088ee2e5a70ab871c4747dc483a42f424b4b4ad19e1feeb04a1c8972fd95de06",
        "04f01ca0e35f0892510b72e158ecd434839f415572226bb3ab234d51192c99d7",
        "e5ee4fbd0467eddc3a0e4c3b130b86aeeb5cb974d02f3bff93eac3922b90a222",
    ),
    "residual --equation nrt --form field --method fd": (
        "1502d6e22a89c6ead4c8b145aea366ddf888859b0b3746d8d361de417a224cd9",
        "710cbd162db37758c27f7823ba270e95a2609fbbada52938ff7fdddb776a9aaa",
        "04773d365902670508a9cf65ffcf7672a14f82f80e26de9ed5b2ae52bd40ec0e",
        "0e55482a4c9c4f3608c1ad87f88e5609d7cf56c6bccefb74ebb657077769118a",
        "aff0161c507a2b3b9796df4a41fe96fe272d6abf187cfa4f263712a95c25a823",
        "fd364fd57e8d44508e8c1e02c7080841e74f71f22db7ee7c252c44cc793cd5a7",
    ),
    "residual --equation new --form time --method analytic": (
        "4b92befb14fc7d7788a12aa83c5e7d17061a5146c045728d8afe1a91439d5edd",
        "16bf675f44fdd62f7746204531d374136dd45d2781ff279d3fb787c6019661df",
        "15d95c5e8220671af6085efadfef4d3c7d7234961bc987a40240eb18b988da9b",
        "bdc2fd89fc9df4ef210519b3e4a7812fccda7fb0f22cfed5e4cf4357dced1a7e",
        "71a87be032574a4abd8c6005fe3d7a6bc5ff6861313a87ea8015c87918397153",
        "7ce4577b7f68e87eab2adcc0c2ce7db2b43e6aa657e16ab849d37478c3d66e59",
    ),
    "residual --equation new --form time --method fd": (
        "7ea9177747efcbd19016c4192f50b66263680d70e90537b993ff33968d15e68f",
        "37b89bb3fb62ce6e909a52ffdfaf1f88c93560ddb26c79113e0d21b290a71eda",
        "989f8687d565c805815aadb59663a1531b6dd7fd675b20af4baefa56f43b901b",
        "e36af40f1b22913b9bc6445392e95039ffe71d7ab9470f245feca149f8e17e0c",
        "9a8ead4709e44b19520a1d4fa84f1c799a55411be85617665314f8bcd75b74fc",
        "1c6bec36bed671fa1e36f15c7ef9466478e4d80a61a4453eae2d7a5d30b3963f",
    ),
    "residual --equation nrt --form time --method analytic": (
        "cd8c8edcb0eb8c342cb604de5d5577c495eb3c49e72ac1aaceb8c796f01b863c",
        "96c1637b54d0997e2321f976a70b0a54bb667fed95bc82ce7d39ae3ea932e518",
        "62987c0e122516625f3ca575bf8764c5c0eebd3eb1faacfcdfd55b137c70e8bf",
        "8d4872a81b766b12709721c454245d692fdcec0cf1837624eb4272119927e52d",
        "8ed731ccdc970a41e3642ae61f7e61c880537bd7d09a2ea51018e3cc3d49b118",
        "463d2d666b47c06f05bb04f07d2955de5d39c60a60f35cb18b9650cf610875f1",
    ),
    "residual --equation nrt --form time --method fd": (
        "74fce460d6d63b1ada914141b1955fbdec015ecb73d228f54e922494b5b53287",
        "3d706294ce9334e8844310a8c8cd2331d99fdb0d6d5c39cd19e7711d92a0cb64",
        "8d5cd5276b600c6d98de0c15bc14ef8db2cfe98f7230d49c23c7cd98e1e4b250",
        "54714b1c49801d9b0824b22a1cfcb21da401926113014cb0de0879da844aa0f1",
        "7f50cd8258178a6f1aad29861314fbba5197f84a678ac8c97a36bf4aa1f30000",
        "c2ce9117b87b0411317ea4711e527b3e2379997ea2a7a3484489b3ed24563083",
    ),
    "residual --equation new --form space --method analytic": (
        "3a6915b8b0555bffc3a8c51919a9e541bab6062456fe72227350c8b985e79d2a",
        "205e7fa07cd390365a852aaf4fb499851bdc7f82d5f1f696af2b2a168c3d1cf1",
        "ab9b50e2b26308c338ed93937131ed71951cfeabb298add7a7c4965760c5c51d",
        "8c7206f90ed57cb85caef6e120bb7d75f98f5622111efc3b6c2362f9e9ebb7a9",
        "4ee45e96eea52768a13714b3dfd458e4be906f6b823fcfc5d7bdadf492aa9138",
        "1709c0cc00336ae4ef5e18b45cdc9158b8e38292257f841b7161d92d7f15dcaa",
    ),
    "residual --equation new --form space --method fd": (
        "4a79c3704046a442b1d98ebd933b32cc2837bbb52f1c822b54c8301b4e3763e0",
        "312d949d9a6f50558806fe5e38ddbc26258d59d85561e74616b49dad29100756",
        "15698eae9441c2051fe3551ba49a26517cf86c0d5e928a15d7a5f9bbb4579eba",
        "6d502f1c8f61736101ad13615ea1ed1187f30e85548d67bb8fb4c6fb3d37a4c1",
        "5546abb9d57af38a37ad5a8e2f1263a72cd583f92c3b3251312071fe71922ec4",
        "55275186fd1170e874d609cb7e3d3f932496f0a0f60818772726a12fdc68bf89",
    ),
    "residual --equation nrt --form space --method analytic": (
        "d8de34a76b0ec086ac4cb84dcfea1d55c8ba40c01766181e196cc6dec4b98ee4",
        "7d2b8a3ccdebcc96f3c5e0b34c55614d02313993fbba49bff4359c7464b7693e",
        "c875e5b7e5fb0048b1f34485ee928428f251a32bf5af35a33f5f0ad14403a40b",
        "c6b32fbadeee7236a7bb4748799731adfb39503c788cb51871b8494e8641728d",
        "0e2a6a98d681fefb443329e0f61a1d845d16cf59bfe225a1db301d32e7fe905a",
        "14c6405dc270c0a311ac6b1823ad49b5a3b8f9bed82b873fcd16b5a7e1969c47",
    ),
    "residual --equation nrt --form space --method fd": (
        "b2c26927c1d9557f2912892f78d801c74bd0fa03900911907cb7fe0cd52e3579",
        "803ed60956c24e6e16970798e20d0018e0858f96cbc083d89559e5a6a95b0986",
        "88d965ca02471a0cf8863cb7b827555c3275965db4932364ccb6fe28c19c4c25",
        "7522a060d8dbd41b905020b210d416dd1fdf10fbc6f335ed888b2e0c94ba1b24",
        "dd4697bbeb92cbf93ecc4b788626ebff2fe95194b4f951edeb5ade9b961d48a6",
        "b4a2570eae5eb629dde6ac8434b7aa0017579d4656bcd1fdb440a51737389f67",
    ),
    "residual --equation new --form space --solution nrt --method analytic": (
        "bfa6928facf39fb48f9c2de09580f866f5aa39d25c940ccc3f95bd4811aab08a",
        "ce2940165f8ef32a68065fa27746b4a9a33e01c04189808bb9c9fc9d7bdb85a9",
        "0be5fc7e9b3f9607ea765bd27aad568e125545507e5c0ec487730d304d1f5286",
        "5f2895d8c510621f1010964009759f09bddb755bd619df66a52336f618c084e1",
        "e54ddef733c2d2eb10eec7a8e7469f62f75f0a6d610dcbeb9b9d32756846ddd8",
        "338f33fab916b3b30f269938b690fb7e7aa54f6efca03ca37ba4754facfece65",
    ),
    "residual --equation new --form space --solution nrt --method fd": (
        "888b8b64ad46935ef9eb3637d90f1412a8063045871f4294b36b9f789f9def71",
        "4d73b2c5c154c08a4e971a8ea5102734554d95da3d1209aba5af619886b21d67",
        "d1e6f78bef5614b792cbecba8dac2f59b7c3a317da9702d610dd4d70c70ae44e",
        "a5c94fad67723e5b2d2344d2e6f1f52e93a68359cd6b06d2531e53dd888e5350",
        "29641fef5461aa6aeadaf716495c2fd28a0a11044dedd4798f633d5fddf63970",
        "e605177599cfeef14cc5c4e136338d8428f6d758a075e12e14d8f705b73d35a9",
    ),
    "converge --study ode-time --equation new": (
        "d36de92e014ca81bbc13601045c45e167c547d45873e1f4eb2e6d5a827a66323",
        "af69e15bd0477639c0f3ebcf675aa337a31c3f68ac73f413346461d599a10c6f",
        "fc2fa6e9f92dbb93ca10f0b807e3d32886db39c193c7cc9cc45eaa19b64a4361",
        "d179749b61a3642f4ae828e56a3be1e1fc8b8a80b2330e65663dbd95dfe6f830",
        "0c6b45460e13aa80df73bb7e1b3fd423ca3ef481ab148ec4b6d6a08aec01541f",
        "073de822c0166ae4b460c7cf6d4b39ddc05b7f476a31202c1f0dc5bf0c063920",
    ),
    "converge --study ode-time --equation nrt": (
        "b094f0035c71e5af70cb8ddb443bf648acf3c3646d4c41ea26de5e08bc5b1792",
        "455081f517ccc9d6e9c07c3c1ba574eebedf7bcfd907b8d73d4c08fa44f7cdbe",
        "97ec03d09d94145d6251c9052c5c441fb397a09d8960a89bb296698308ad20f1",
        "c8d2bc1647d0b1b6d82fc03c147154dd965032ee3b9b487165d480c152c5e8bd",
        "fcbcf10cec665a727f8c70d7ba34b591a654fac45b232eac05ba596e21724343",
        "417461a1ae1645e11d6f36a504d034975832bbec70b84286d7f65e900c6f990e",
    ),
    "converge --study ode-space --equation new": (
        "01a04a8fc940350a93922109347d517d1d43d91f08fdc098f0fae2bae6e41ae9",
        "722e039488c07a0724f3f9995644eb6c97eb7920b9d7156bd36414a9b9819be8",
        "e6ebf7711973b6d4f9594e801052eb7ca32efd6914061f3a6755565e4b900b07",
        "6f9314882a61c63ff8bde1eae9f60ba3e148527098fbcb15a48131397acb0653",
        "0b521ad516e7e6b60f4dfb98e5af0ff8789a439e2691bbaf881f0b68942352e6",
        "196017018f4dee55132bbc50a12af87b82bff0b60d17d2a854e71c5b8bb17adf",
    ),
    "converge --study ode-space --equation nrt": (
        "57e82fae566f0fc96df4208f95c9ad7ea4e41274e5523dde1c30fcb7c87a13ea",
        "4350d6e8ab5bbd915fb37cb4ced556b136fbf679b350c50d468a441bfaa61172",
        "73d175f3a0bd86ae1af9c97f46534317e4b9e0c847c45e52c742d72c233a1db1",
        "8a2b208cbad32bf026f8ca0be83a500609ad5db4a499e85475ed5da5c6ce0641",
        "d61f5092ecc08f2eea35915982fe2769b90439821fc57e06e555b2499221de3c",
        "1638639779408d1daac24721dcd9c94e33766c50c48b09335e556f5f9888dae2",
    ),
    "converge --study pde --equation new": (
        "exit 1: error: the errors 1.87e-07, 4.67e-08, 4.81e-08 at steps 0.2, 0.1, 0.05 do not fall strictly from the coarsest level to the finest, so they fit no order\n",
        "exit 1: error: the errors 1.87e-07, 4.67e-08, 4.81e-08 at steps 0.2, 0.1, 0.05 do not fall strictly from the coarsest level to the finest, so they fit no order\n",
        "d64bb0929ce2ea043883ea441aa52db05df5b433f1c23f84a4cc3babfb82427e",
        "a2507e7c9537ea33fcac4bfd3c560f98a2008663145b7ca7aa309dbc968b0f7b",
        "083d8b3f2b8456c9b15ecf86fe9e4c2a026ae9a03150db45361d9b2ef869b04a",
        "ed79e91e87d23214dbf86d0dd4b85499dee2f89c9e20e3e5cfa06a7cf4e39678",
    ),
    "converge --study pde --equation nrt": (
        "75b3f75bd350bf2f939e34ee60076d83dadc17dd577675238e93f6953a2502c8",
        "60d4775c4e9943fc3b94394a0e50da6c14329918f515b827f7469e584380fee6",
        "df8f7ac1796ddd42ed6a31fb666033827d7ced497e7881d54d4620d879101518",
        "fb6857a4bfb5d0885e9ad9d7224fb6d9e1f8c8f4f54c83052c2e7a029a89ee9d",
        "c980c6a1f3f50a0140369239e9b9d5d0d0b3abe4077b33201600b0707d9f731e",
        "e05c718f081cb8f04245894a14e542cf008be09fe6c92d858c01513d3290824c",
    ),
    "propagate --equation new --nx 41 --dt 1e-4 --steps 20": (
        "972ea90cb90428ca4cc325f84feec5eda008ba53c37b5052f75d8a79489d3b1f",
        "598aff8dda70fa83cce0352784a658a8af36e5811eaaecdce55af1fe24eea08e",
        "7e370e2b839d0e279783c4cdd110c7ab523a652a41c9dda90d3704c5ecb4c8ce",
        "6bff34797d9aa3f97fb286b13b7856ce9a833f4b39ef82b782adbd03f26f4737",
        "86379983aff7661d5ca9fdb4881430e45ac044444a4a931397cd13f1f2216090",
        "e7ae83423e28f49c1c84373f18e1d3e38b51f6b9a77727e816438e7cca93dc88",
        "0c6de1ca79417c74fec731d3d2ee0a7ab418332f584a16cb0232394603cb9766",
        "f307dd0390fed0728803191bbfef3c45ae614aea6c65757a3a3de8c846fa2f0e",
        "b6c54e61d311cdf6283a83b9f8dc06ece2f13e9053502de140d85d4bb7c7f2cb",
    ),
    "propagate --equation nrt --nx 41 --dt 1e-4 --steps 20": (
        "dc4517dcf81f5e95e7bdbf2eec12b36e6bb9c5994509f86aab0a3705cccd176c",
        "995a89b89b4a390f57dae0f9b7f3b9c89be900497bab6747f53ed2b57af0c774",
        "5576af321edf8f9231bd7e177679c1d9bd7dd6d7846371b33f1bd2a2df9c645f",
        "968df3a0cec8890ace51cffb054798b11ecdef1da98efdd52fc6a3e5f036720f",
        "86379983aff7661d5ca9fdb4881430e45ac044444a4a931397cd13f1f2216090",
        "e7ae83423e28f49c1c84373f18e1d3e38b51f6b9a77727e816438e7cca93dc88",
        "136b467aec476759a25b7fbc6e653892067f4a5502f473c22b014506a4b2bf45",
        "f6198d8ba9e545e1aa31cd64ac422429453f7e28bc08a7d326eafad107125240",
        "3a100ad781dfd05d0bed4eafd85bdc4e0dad957892d4ec602dbaa73a0d96e2a7",
    ),
    "propagate --equation new --q 1.03 --nx 401 --dt 1e-05 --steps 300": (
        "818df3cff88d9d10cc76d14bc05b9bb7a5cda98e91ef4efad0ca6d2bf5b5b5a8",
        "2987e779037b93271f492e5a7d96a5a2af2c5bce4b362d6df4567f6c7e680a20",
        "bfaf75013e815cd23f73f9ec0d11e701ae2fafecd17cee61fef96464985a6bc4",
    ),
    "propagate --equation nrt --q 1.03 --nx 401 --dt 1e-05 --steps 300": (
        "06681365391d2e035c666fe288fb2582def2e82fbdee69a84148b750cc857fab",
        "bd21f5b42c2310810c0339c49d7542d1f372b9e82960c4708f75d0befc33c62e",
        "682decdd03d037a2845c0a0c20abe9bda8d07afdc8840fa1cd5b1afd58a6b6c8",
    ),
    "compare": (
        "bb10031306fa368b90f1e45484ed6ab5333c0166d28ce85ec53460dc807bfd8f",
        "958cfbf687358a36ee803982835626114eb47b7f91e648ce6dd4b84bfbf0c04d",
        "f60269b64d72c6d5ce0b57ae09e9d269212018e2c1dbf47b2007999b195a3efc",
        "fa8a4cc3ad3b6050c7c6463cde9e84bba054a1507e9cf1b828a80f403b77332a",
        "351c66591930ec1af85c7e098642bff894ee6f1cd586dff17e900adbdd32d16d",
        "3b2224b7ee1565dc40eba836478b9b579d27a74e6f441846aabecbd857920ddf",
    ),
    "limit": (
        "8ce1c1b66b9c8c9fa1501d68119f96a42ea41cfea76b30cf9f8b16fb4a80ee02",
        "ffe9114e2f2084994210168bd1364f0d67ec8db8c7579f772375f958e2008c3a",
    ),
}


# sha256 of the stdout of each row, run with no --out: the JSON frames
# that ``propagate`` streams with ``writelines``, one frame's text at a
# time, for the benchmark's frames-out inputs
STDOUT_DIGESTS = {
    "propagate --equation new --q 1.03 --nx 401 --dt 1e-05 --steps 300 --format json": "818df3cff88d9d10cc76d14bc05b9bb7a5cda98e91ef4efad0ca6d2bf5b5b5a8",
    "propagate --equation nrt --q 1.03 --nx 401 --dt 1e-05 --steps 300 --format json": "06681365391d2e035c666fe288fb2582def2e82fbdee69a84148b750cc857fab",
}


@pytest.fixture(autouse=True)
def recorded_numpy():
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, not {np.__version__}")


@pytest.mark.parametrize("fmt", sorted(VERIFY_DIGESTS))
def test_seed_42_verify_report(monkeypatch, tmp_path, fmt):
    monkeypatch.setenv("QNLSE_SEED", "42")
    out = tmp_path / f"verify.{fmt}"
    assert main(["verify", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_DIGESTS[fmt]


def march_digests(seed: int) -> list:
    """Each march of ``bench/workloads.py::march_plan(seed)``, run as the
    benchmark's march workload runs it, as the sha256 of its frames
    (``bench`` must be on ``sys.path``)."""
    digests = []
    for m in importlib.import_module("workloads").march_plan(seed):
        kind = SolutionKind(m.equation)
        field = manufactured_field(kind, FreeParticleSpec(q=m.q, p=m.p))
        grid = GridSpec(-5.0, 5.0, m.n, m.dt, m.steps)
        frames = propagate(kind, sample_field(field, grid, 0.0), m.q, 0.5, 1.0, boundary=field)
        digests.append(hashlib.sha256(frames.values.tobytes()).hexdigest())
    return digests


@pytest.mark.parametrize("seed", sorted(MARCH_DIGESTS))
def test_march_plan_frames(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    assert march_digests(seed) == MARCH_DIGESTS[seed]


def cli_argvs(row: str) -> list:
    """The argv of each run of one ``CLI_DIGESTS`` row, in digest order."""
    words = row.split()
    qs = [[]] if words[0] == "limit" or "--q" in words else [["--q", q] for q in CLI_QS]
    fmts = ("json", "csv", "svg") if words[0] == "propagate" else ("json", "csv")
    return [words + q + ["--format", fmt] for q in qs for fmt in fmts]


def cli_runs() -> list:
    """(argv, recorded digest) of every CLI run of ``CLI_DIGESTS``."""
    return [run for row, digests in CLI_DIGESTS.items()
            for run in zip(cli_argvs(row), digests, strict=True)]


def output_digest(argv, out: Path) -> str:
    """Run the CLI with ``--out out``: the sha256 of that file, or of a
    directory's file names and bytes in name order; for a run that wrote
    neither, its exit code and stderr as ``"exit <code>: <stderr>"``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    if not out.exists():
        return f"exit {code}: {err.getvalue()}"
    if not out.is_dir():
        return hashlib.sha256(out.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("argv, digest",
                         [pytest.param(argv, digest, id=" ".join(argv))
                          for argv, digest in cli_runs()])
def test_cli_report(tmp_path, argv, digest):
    assert output_digest(argv, tmp_path / "report") == digest


def stdout_digest(argv) -> str:
    """Run the CLI with no ``--out``: the sha256 of its stdout as UTF-8."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        main(argv)
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("row", list(STDOUT_DIGESTS))
def test_cli_stdout(row):
    assert stdout_digest(row.split()) == STDOUT_DIGESTS[row]


def _literal(name: str, table: dict, brackets: str = "") -> str:
    """``name = {...}`` as written above: each value one digest, or a list
    (``brackets="[]"``) or tuple (``"()"``) of them."""
    lines = [f"{name} = {{"]
    for key, value in table.items():
        if not brackets:
            lines.append(f"    {json.dumps(key)}: {json.dumps(value)},")
            continue
        lines.append(f"    {json.dumps(key)}: {brackets[0]}")
        lines += [f"        {json.dumps(d)}," for d in value]
        lines.append(f"    {brackets[1]},")
    return "\n".join(lines + ["}"])


def current_digests(tmp: Path) -> str:
    """The four digest tables of this tree, in this file's literal format."""
    os.environ["QNLSE_SEED"] = "42"
    verify = {fmt: output_digest(["verify", "--format", fmt], tmp / f"verify.{fmt}")
              for fmt in VERIFY_DIGESTS}
    sys.path.insert(0, str(BENCH))
    marches = {seed: march_digests(seed) for seed in MARCH_DIGESTS}
    cli = {row: [output_digest(argv, tmp / f"{row} {i}") for i, argv in enumerate(cli_argvs(row))]
           for row in CLI_DIGESTS}
    stdout = {row: stdout_digest(row.split()) for row in STDOUT_DIGESTS}
    return "\n\n".join([f"NUMPY_VERSION = {json.dumps(np.__version__)}",
                         _literal("VERIFY_DIGESTS", verify),
                         _literal("MARCH_DIGESTS", marches, "[]"),
                         _literal("CLI_DIGESTS", cli, "()"),
                         _literal("STDOUT_DIGESTS", stdout)])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(current_digests(Path(tmp)))
